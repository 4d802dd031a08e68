//! WordCount (§4): count occurrences of each unique word.
//!
//! * HAMR: `TextLoader → SplitMap → PartialReduce(sum)` — the partial
//!   reduce increments counts as soon as words arrive, with no wait
//!   for global aggregation.
//! * Hadoop: classic map + reduce; the optional combiner collapses
//!   map-local duplicates (the configuration the paper notes makes the
//!   gap between the engines small).

use crate::env::{scaled, BenchOutput, Env};
use crate::gen::text::wordcount_corpus;
use crate::{output_checksum, pair_checksum, Benchmark};
use hamr_codec::{read_entry, write_varint};
use hamr_core::{typed, Emitter, Exchange, FlowletId, JobBuilder, JobGraph};
use hamr_mapred::{line_map_fn, reduce_fn, JobConf, ReduceOutput};
use std::sync::Arc;
use std::time::Instant;

const INPUT: &str = "wordcount/input.txt";

/// `1u64` as its `Codec` writes it: the count every word is emitted
/// with.
const ONE: &[u8] = &[1];

/// Write `word` into `key` the way `String`'s `Codec` does,
/// `varint(len) ++ bytes`, reusing `key`'s allocation: both engines'
/// maps key a word so, without a `String` per word.
fn word_key(word: &str, key: &mut Vec<u8>) {
    key.clear();
    write_varint(word.len() as u64, key);
    key.extend_from_slice(word.as_bytes());
}

/// WordCount benchmark parameters (defaults match the harness scale).
pub struct WordCount {
    pub lines: usize,
    pub words_per_line: usize,
    pub vocab: usize,
}

impl Default for WordCount {
    fn default() -> Self {
        // ~16 GB / 4096 ≈ 4 MB of text.
        WordCount {
            lines: 30_000,
            words_per_line: 10,
            vocab: 4_000,
        }
    }
}

impl WordCount {
    fn corpus(&self, env: &Env) -> Vec<String> {
        wordcount_corpus(
            scaled(self.lines, env.params.scale),
            self.words_per_line,
            self.vocab,
            env.params.seed,
        )
    }

    /// The HAMR job over the seeded input, with the id of its counting
    /// flowlet.
    pub fn hamr_graph(partial: bool) -> Result<(JobGraph, FlowletId), String> {
        let mut job = JobBuilder::new("wordcount");
        let loader = job.add_loader("TextLoader", typed::dfs_line_loader(INPUT));
        let split = job.add_map(
            "SplitMap",
            typed::map_fn(|_off: u64, line: String, out: &mut Emitter| {
                let mut key = Vec::new();
                for w in line.split_whitespace() {
                    word_key(w, &mut key);
                    out.emit(0, &key, ONE);
                }
            }),
        );
        let count = if partial {
            job.add_partial_reduce("CountPartial", typed::sum_reducer::<String>())
        } else {
            job.add_reduce(
                "CountReduce",
                typed::reduce_fn(|k: String, vs: typed::Values<u64>, out: &mut Emitter| {
                    out.output_t(&k, &vs.sum::<u64>());
                }),
            )
        };
        job.connect(loader, split, Exchange::Local);
        job.connect_combined(split, count, Exchange::Hash, typed::sum_combiner());
        job.capture_output(count);
        let graph = job.build().map_err(|e| e.to_string())?;
        Ok((graph, count))
    }

    /// HAMR run with an explicit choice of full reduce vs partial
    /// reduce (the partial-reduce ablation).
    pub fn run_hamr_with(&self, env: &Env, partial: bool) -> Result<BenchOutput, String> {
        let start = Instant::now();
        let (graph, count) = Self::hamr_graph(partial)?;
        let result = env.hamr.run(graph).map_err(|e| e.to_string())?;
        let (checksum, records) = output_checksum(result.output(count));
        Ok(BenchOutput::hamr(
            start.elapsed(),
            checksum,
            records,
            &[result],
        ))
    }

    /// The Hadoop job over the seeded input, writing under `output`.
    pub fn mapred_conf(output: &str, combiner: bool) -> JobConf {
        let mapper = Arc::new(line_map_fn(|_off, line, out| {
            let mut key = Vec::new();
            for w in line.split_whitespace() {
                word_key(w, &mut key);
                out.emit(&key, ONE);
            }
        }));
        let reducer = Arc::new(reduce_fn(
            |k: String, vs: Vec<u64>, out: &mut ReduceOutput| {
                out.emit_t(&k, &vs.iter().sum::<u64>());
            },
        ));
        let mut conf = JobConf::new(
            "wordcount",
            vec![INPUT.to_string()],
            output,
            mapper,
            reducer.clone(),
        );
        if combiner {
            conf = conf.with_combiner(reducer);
        }
        conf
    }

    /// Hadoop run with/without combiner.
    pub fn run_mapred_with(&self, env: &Env, combiner: bool) -> Result<BenchOutput, String> {
        let start = Instant::now();
        let output = env.unique_path("wordcount/out");
        let conf = Self::mapred_conf(&output, combiner);
        let stats = env.mr.run(&conf).map_err(|e| e.to_string())?;
        let (checksum, records) = mr_output_checksum(env, &output)?;
        Ok(BenchOutput::mapred(
            start.elapsed(),
            checksum,
            records,
            &[stats],
        ))
    }
}

/// Checksum a MapReduce job's KV-format output directory.
pub(crate) fn mr_output_checksum(env: &Env, output: &str) -> Result<(u64, u64), String> {
    let mut pairs: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
    for part in env.dfs.list(&format!("{output}/")) {
        let raw = env.dfs.read_all(&part).map_err(|e| e.to_string())?;
        let mut input = raw.as_slice();
        while let Some((k, v)) = read_entry(&mut input).map_err(|e| format!("{part}: {e}"))? {
            pairs.push((k.to_vec(), v.to_vec()));
        }
    }
    let checksum = pair_checksum(pairs.iter().map(|(k, v)| (k.as_slice(), v.as_slice())));
    Ok((checksum, pairs.len() as u64))
}

impl Benchmark for WordCount {
    fn name(&self) -> &'static str {
        "WordCount"
    }

    fn seed(&self, env: &Env) -> Result<(), String> {
        env.seed_text(INPUT, &self.corpus(env))
    }

    fn run_hamr(&self, env: &Env) -> Result<BenchOutput, String> {
        self.run_hamr_with(env, true)
    }

    fn run_mapred(&self, env: &Env) -> Result<BenchOutput, String> {
        // Per §4, the Hadoop WordCount uses a Combiner — that is the
        // configuration Table 2 compares against.
        self.run_mapred_with(env, true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hamr_codec::Codec;

    #[test]
    fn a_word_key_is_the_words_string_encoding() {
        let mut key = vec![0xff; 3];
        for word in ["", "w1", "wörter", &"x".repeat(200)] {
            word_key(word, &mut key);
            assert_eq!(key, word.to_string().to_bytes().to_vec());
        }
        assert_eq!(ONE, &1u64.to_bytes()[..]);
    }
}
