//! Minimal shared CSV writing, RFC 4180 quoting rules.
//!
//! The gauge time-series export emits CSV whose column names are
//! `name{label="v",...}` series; this helper is the one place that
//! knows when a field needs quoting (embedded comma, quote, or newline)
//! so no emitter can silently produce unparsable rows. Plain fields
//! pass through unquoted.

/// Escape one CSV field: returned verbatim unless it contains a comma,
/// double quote, CR or LF, in which case it is quoted with inner
/// quotes doubled.
pub fn csv_escape(field: &str) -> String {
    if field.contains([',', '"', '\n', '\r']) {
        let mut out = String::with_capacity(field.len() + 2);
        out.push('"');
        for c in field.chars() {
            if c == '"' {
                out.push('"');
            }
            out.push(c);
        }
        out.push('"');
        out
    } else {
        field.to_string()
    }
}

/// Append one CSV row (fields escaped, comma-joined, newline-ended)
/// to `out`.
pub fn push_csv_row<S: AsRef<str>>(out: &mut String, fields: impl IntoIterator<Item = S>) {
    let mut first = true;
    for field in fields {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&csv_escape(field.as_ref()));
    }
    out.push('\n');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plain_fields_pass_through() {
        assert_eq!(csv_escape("t_us"), "t_us");
        assert_eq!(csv_escape("node0/f1/queue_depth"), "node0/f1/queue_depth");
        assert_eq!(csv_escape(""), "");
    }

    #[test]
    fn special_fields_are_quoted() {
        assert_eq!(csv_escape("a,b"), "\"a,b\"");
        assert_eq!(csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
        assert_eq!(csv_escape("line\nbreak"), "\"line\nbreak\"");
    }

    #[test]
    fn rows_join_and_terminate() {
        let mut out = String::new();
        push_csv_row(&mut out, ["a", "b,c", "d"]);
        push_csv_row(&mut out, ["1", "2", "3"]);
        assert_eq!(out, "a,\"b,c\",d\n1,2,3\n");
    }
}
