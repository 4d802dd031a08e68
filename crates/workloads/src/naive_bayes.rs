//! NaiveBayes Training (§4, Alg. 4): accumulate per-label and
//! per-feature weight sums from labeled documents.
//!
//! * HAMR: one job, three flowlets —
//!   `TextLoader → IndexInstancesMapper → VectorSumReducer (partial)
//!    → WeightSumReducer (partial)`.
//! * Hadoop: the same computation needs **two chained jobs** (vector
//!   sums by label, then weight sums by feature), paying a second job
//!   startup and a DFS round trip, exactly as the paper describes.
//!
//! Weights are integer term counts so both engines produce bit-equal
//! results. Output keys: `L:<label>` for per-label totals and
//! `F:<word>` for per-feature weights.

use crate::env::{scaled, BenchOutput, Env};
use crate::gen::text::labeled_documents;
use crate::wordcount::mr_output_checksum;
use crate::{pair_checksum, Benchmark};
use hamr_core::{typed, Emitter, Exchange, JobBuilder};
use hamr_mapred::{line_map_fn, map_fn, reduce_fn, InputFormat, JobConf, ReduceOutput};
use std::sync::Arc;
use std::time::Instant;

const INPUT: &str = "naivebayes/input.txt";

/// Sparse term-count vector, sorted by word.
type SparseVec = Vec<(String, u64)>;

/// Parse `label<TAB>w1 w2 ...` into (label, sorted term counts).
fn parse_document(line: &str) -> Option<(String, SparseVec)> {
    let (label, body) = line.split_once('\t')?;
    let mut counts = std::collections::BTreeMap::new();
    for w in body.split_whitespace() {
        *counts.entry(w.to_string()).or_insert(0u64) += 1;
    }
    Some((label.to_string(), counts.into_iter().collect()))
}

/// Merge two sorted sparse vectors.
fn merge_sparse(a: SparseVec, b: SparseVec) -> SparseVec {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut ia, mut ib) = (a.into_iter().peekable(), b.into_iter().peekable());
    loop {
        match (ia.peek(), ib.peek()) {
            (Some((ka, _)), Some((kb, _))) => {
                if ka == kb {
                    let (k, va) = ia.next().expect("peeked");
                    let (_, vb) = ib.next().expect("peeked");
                    out.push((k, va + vb));
                } else if ka < kb {
                    out.push(ia.next().expect("peeked"));
                } else {
                    out.push(ib.next().expect("peeked"));
                }
            }
            (Some(_), None) => out.push(ia.next().expect("peeked")),
            (None, Some(_)) => out.push(ib.next().expect("peeked")),
            (None, None) => break,
        }
    }
    out
}

pub struct NaiveBayes {
    pub docs: usize,
    pub words_per_doc: usize,
    pub vocab: usize,
    pub labels: usize,
}

impl Default for NaiveBayes {
    fn default() -> Self {
        // ~10 GB / 4096 ≈ 2.4 MB of documents.
        NaiveBayes {
            docs: 12_000,
            words_per_doc: 20,
            vocab: 2_000,
            labels: 5,
        }
    }
}

impl Benchmark for NaiveBayes {
    fn name(&self) -> &'static str {
        "NaiveBayes"
    }

    fn seed(&self, env: &Env) -> Result<(), String> {
        let docs = labeled_documents(
            scaled(self.docs, env.params.scale),
            self.words_per_doc,
            self.vocab,
            self.labels,
            env.params.seed.wrapping_add(3),
        );
        env.seed_text(INPUT, &docs)
    }

    fn run_hamr(&self, env: &Env) -> Result<BenchOutput, String> {
        let start = Instant::now();
        let mut job = JobBuilder::new("naive-bayes");
        let loader = job.add_loader("TextLoader", typed::dfs_line_loader(INPUT));
        let index = job.add_map(
            "IndexInstancesMapper",
            typed::map_fn(|_off: u64, line: String, out: &mut Emitter| {
                if let Some((label, vector)) = parse_document(&line) {
                    out.emit_t(0, &label, &vector);
                }
            }),
        );
        // Per-label vector sums; finish releases per-feature weights
        // downstream and per-label totals into the job output.
        let vector_sum = job.add_partial_reduce(
            "VectorSumReducer",
            typed::partial_fn::<String, SparseVec, SparseVec, _, _, _>(
                |v| v,
                merge_sparse,
                |_ctx, label, acc, out: &mut Emitter| {
                    let total: u64 = acc.iter().map(|(_, c)| c).sum();
                    out.output_t(&format!("L:{label}"), &total);
                    for (word, weight) in acc {
                        out.emit_t(0, &word, &weight);
                    }
                },
            ),
        );
        let weight_sum = job.add_partial_reduce(
            "WeightSumReducer",
            typed::partial_fn::<String, u64, u64, _, _, _>(
                |v| v,
                |acc, v| acc + v,
                |_ctx, word, acc, out: &mut Emitter| {
                    out.output_t(&format!("F:{word}"), &acc);
                },
            ),
        );
        job.connect(loader, index, Exchange::Local);
        job.connect_combined(
            index,
            vector_sum,
            Exchange::Hash,
            typed::combine_fn::<SparseVec, _>(merge_sparse),
        );
        job.connect_combined(
            vector_sum,
            weight_sum,
            Exchange::Hash,
            typed::sum_combiner(),
        );
        job.capture_output(vector_sum);
        job.capture_output(weight_sum);
        // Pin the split input lines: a rerun on the same cluster
        // serves them from the resident cache instead of re-reading
        // and re-splitting the DFS blocks.
        job.resident(loader, "nb/lines", env.hamr.fingerprint(INPUT));
        let result = env
            .hamr
            .run(job.build().map_err(|e| e.to_string())?)
            .map_err(|e| e.to_string())?;
        let mut pairs: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
        for f in [vector_sum, weight_sum] {
            for r in result.output(f) {
                pairs.push((r.key.to_vec(), r.value.to_vec()));
            }
        }
        let checksum = pair_checksum(pairs.iter().map(|(k, v)| (k.as_slice(), v.as_slice())));
        let records = pairs.len() as u64;
        Ok(BenchOutput::hamr(start.elapsed(), checksum, records, &[result]))
    }

    fn run_mapred(&self, env: &Env) -> Result<BenchOutput, String> {
        let start = Instant::now();
        let inter = env.unique_path("naivebayes/inter");
        let output = env.unique_path("naivebayes/out");
        // Job 1: per-label vector sums.
        let job1 = JobConf::new(
            "nb-vectorsum",
            vec![INPUT.to_string()],
            &inter,
            Arc::new(line_map_fn(|_off, line, out| {
                if let Some((label, vector)) = parse_document(line) {
                    out.emit_t(&label, &vector);
                }
            })),
            Arc::new(reduce_fn(
                |label: String, vectors: Vec<SparseVec>, out: &mut ReduceOutput| {
                    let sum = vectors.into_iter().fold(SparseVec::new(), merge_sparse);
                    let total: u64 = sum.iter().map(|(_, c)| c).sum();
                    out.emit_t(&format!("L:{label}"), &total);
                    for (word, weight) in sum {
                        out.emit_t(&word, &weight);
                    }
                },
            )),
        );
        let vector_sums = env.mr.run(&job1).map_err(|e| e.to_string())?;
        // Job 2: per-feature weight sums (reads job 1's parts).
        let job2 = JobConf::new(
            "nb-weightsum",
            env.dfs.list(&format!("{inter}/")),
            &output,
            Arc::new(map_fn(|k: String, v: u64, out| out.emit_t(&k, &v))),
            Arc::new(reduce_fn(
                |k: String, vs: Vec<u64>, out: &mut ReduceOutput| {
                    let sum: u64 = vs.iter().sum();
                    if k.starts_with("L:") {
                        out.emit_t(&k, &sum);
                    } else {
                        out.emit_t(&format!("F:{k}"), &sum);
                    }
                },
            )),
        )
        .with_input_format(InputFormat::KeyValue);
        let weight_sums = env.mr.run(&job2).map_err(|e| e.to_string())?;
        let (checksum, records) = mr_output_checksum(env, &output)?;
        let jobs = [vector_sums, weight_sums];
        Ok(BenchOutput::mapred(start.elapsed(), checksum, records, &jobs))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_document_counts_terms() {
        let (label, vec) = parse_document("label2\tb a b c b").unwrap();
        assert_eq!(label, "label2");
        assert_eq!(
            vec,
            vec![
                ("a".to_string(), 1),
                ("b".to_string(), 3),
                ("c".to_string(), 1)
            ]
        );
        assert!(parse_document("no tab").is_none());
    }

    #[test]
    fn merge_sparse_adds_overlaps() {
        let a = vec![("a".to_string(), 1), ("c".to_string(), 2)];
        let b = vec![("b".to_string(), 5), ("c".to_string(), 3)];
        assert_eq!(
            merge_sparse(a, b),
            vec![
                ("a".to_string(), 1),
                ("b".to_string(), 5),
                ("c".to_string(), 5)
            ]
        );
        assert_eq!(merge_sparse(vec![], vec![]), vec![]);
    }
}
