//! Quickstart: the MapReduce API in a few dozen lines — word count,
//! then the same job again with in-mapper combining (each map counts
//! its own document before it emits), showing the metering the
//! simulator uses.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use std::collections::BTreeMap;

use asyncmr::core::prelude::*;
use asyncmr::runtime::ThreadPool;

/// `map`: one document in, `(word, 1)` pairs out.
struct Tokenize;

impl Mapper for Tokenize {
    type Input = String;
    type Key = String;
    type Value = u64;

    fn map(&self, _task: usize, doc: &String, ctx: &mut MapContext<String, u64>) {
        words(doc).for_each(|word| ctx.emit_intermediate(word, 1));
    }
}

/// `map` with in-mapper combining: counts one document's words first,
/// then emits one `(word, count)` pair per distinct word.
struct TokenizeAndCount;

impl Mapper for TokenizeAndCount {
    type Input = String;
    type Key = String;
    type Value = u64;

    fn map(&self, _task: usize, doc: &String, ctx: &mut MapContext<String, u64>) {
        let mut counts = BTreeMap::new();
        words(doc).for_each(|word| *counts.entry(word).or_insert(0) += 1);
        counts.into_iter().for_each(|(word, count)| ctx.emit_intermediate(word, count));
    }
}

/// A document's words, lower-cased, punctuation dropped.
fn words(doc: &str) -> impl Iterator<Item = String> + '_ {
    doc.split_whitespace()
        .map(|word| word.chars().filter(|c| c.is_alphanumeric()).collect::<String>().to_lowercase())
        .filter(|word| !word.is_empty())
}

/// `reduce`: sums the counts of one word.
struct Count;

impl Reducer for Count {
    type Key = String;
    type ValueIn = u64;
    type Out = u64;

    fn reduce(&self, key: &String, values: &[u64], ctx: &mut ReduceContext<String, u64>) {
        ctx.emit(key.clone(), values.iter().sum());
    }
}

fn main() {
    let docs: Vec<String> = vec![
        "the quick brown fox jumps over the lazy dog".into(),
        "the dog barks and the fox runs".into(),
        "asynchronous algorithms in MapReduce trade serial work for fewer synchronizations".into(),
        "partial synchronization beats global synchronization on distributed platforms".into(),
    ];

    let pool = ThreadPool::with_default_parallelism();
    let mut engine = Engine::in_process(&pool);

    let opts = JobOptions::with_reducers(4);
    let plain = engine.run("wordcount", &docs, &Tokenize, &Count, &opts);
    let combined = engine.run("wordcount-in-mapper", &docs, &TokenizeAndCount, &Count, &opts);

    let mut counts = plain.pairs.clone();
    counts.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    println!("top words:");
    for (word, count) in counts.iter().take(5) {
        println!("  {count:>3}  {word}");
    }

    println!("\nshuffle records, one per word:        {}", plain.meter.shuffle_records);
    println!("shuffle records, combined in the map: {}", combined.meter.shuffle_records);
    assert!(combined.meter.shuffle_records < plain.meter.shuffle_records);
    let mut a = plain.pairs;
    let mut b = combined.pairs;
    a.sort();
    b.sort();
    assert_eq!(a, b, "combining in the mapper must not change results");
    println!("\nresults identical; combining in the mapper only reduced network volume.");
}
