//! Seeded input generation. Everything here runs before any timer
//! starts: the system under test only ever sees the rendered raw text,
//! the question lists and the request streams built from them.

use crate::stats::splitmix64;
use multirag_datasets::render::render_all_sources;
use multirag_datasets::{books, flights, movies, stocks, DomainSpec, Query, Scale, TruthTable};
use multirag_ingest::{RawSource, SourceFormat};
use multirag_kg::{KnowledgeGraph, Value};
use multirag_serve::{build_workload, ServeRequest};

/// Requests per serve-epochs wave.
pub const WAVE: usize = 64;
/// Waves served between two publishes in serve-epochs.
pub const WAVES_PER_PUBLISH: usize = 5;
/// Held-out slices applied per serve-epochs cycle.
pub const SLICES: usize = 12;
/// Slots each serve-epochs epoch asks: the size of a dataset's sampled
/// query set, so `build_workload` turns two thirds of an epoch's
/// requests into repeats and paraphrases.
pub const EPOCH_QUERIES: usize = 100;
/// Distinct serve-epochs cycles generated per run; the run serves them
/// in turn. The gate's oracle replays each distinct cycle once before
/// timing, so there are few. Four give 52 epochs of 100 slots each:
/// with two, `hallucination_rate` spread 0.17 IQR/median over ten seeds.
pub const CYCLES: usize = 4;
/// Sources of the movies roster held out of serve-epochs' initial
/// graph and streamed in slice by slice (record-oriented formats, so
/// slices split on record boundaries).
pub const HELD_OUT: [&str; 2] = ["movies-kg-4", "movies-csv-3"];

/// One generated dataset, reduced to what the benchmark feeds the
/// system: its sources rendered to raw text and the gold truth.
pub struct Dataset {
    pub domain: String,
    pub raw: Vec<RawSource>,
    pub truth: TruthTable,
    pub queryable: Vec<String>,
}

impl Dataset {
    pub fn raw_bytes(&self) -> usize {
        self.raw.iter().map(|r| r.content.len()).sum()
    }
}

/// Generates one dataset and renders its sources.
pub fn generate(spec: DomainSpec, seed: u64) -> Dataset {
    let data = spec.generate(seed);
    Dataset {
        domain: spec.domain.clone(),
        raw: render_all_sources(&data),
        truth: data.truth,
        queryable: spec
            .attributes
            .iter()
            .filter(|a| a.queryable)
            .map(|a| a.name.clone())
            .collect(),
    }
}

pub fn movies_dataset(scale: Scale, seed: u64) -> Dataset {
    generate(movies::MoviesSpec::at_scale(scale), seed)
}

/// The four datasets at `scale`, in a fixed order.
pub fn datasets(scale: Scale, seed: u64) -> Vec<Dataset> {
    [
        movies::MoviesSpec::at_scale(scale),
        books::BooksSpec::at_scale(scale),
        flights::FlightsSpec::at_scale(scale),
        stocks::StocksSpec::at_scale(scale),
    ]
    .into_iter()
    .map(|spec| generate(spec, seed))
    .collect()
}

/// One question per covered queryable slot of the *ingested* graph, in
/// (entity, attribute) order. Re-ingested graphs differ from the
/// generated ones, so coverage is read from the graph the system
/// actually serves.
pub fn slot_questions(data: &Dataset, kg: &KnowledgeGraph) -> Vec<Query> {
    let mut slots: Vec<(&str, &str, &Vec<Value>)> = data
        .truth
        .iter()
        .filter(|((_, attr), _)| data.queryable.contains(attr))
        .map(|((entity, attr), gold)| (entity.as_str(), attr.as_str(), gold))
        .collect();
    slots.sort_by(|a, b| (a.0, a.1).cmp(&(b.0, b.1)));
    slots
        .into_iter()
        .filter(|(entity, attr, _)| {
            kg.find_entity(entity, &data.domain)
                .zip(kg.find_relation(attr))
                .is_some_and(|(e, r)| !kg.slot_triples(e, r).is_empty())
        })
        .enumerate()
        .map(|(id, (entity, attr, gold))| Query {
            id: id as u32,
            text: format!("What is the {} of {entity}?", attr.replace('_', " ")),
            entity: entity.to_string(),
            attribute: attr.to_string(),
            gold: gold.clone(),
        })
        .collect()
}

/// `(dataset, question)` pairs covering every question once, shuffled
/// by a seeded Fisher–Yates so datasets interleave.
pub fn interleave(counts: &[usize], seed: u64) -> Vec<(usize, usize)> {
    let mut order: Vec<(usize, usize)> = counts
        .iter()
        .enumerate()
        .flat_map(|(d, &n)| (0..n).map(move |q| (d, q)))
        .collect();
    let mut state = seed ^ 0x005e_ed0f_a45e_5e41;
    for i in (1..order.len()).rev() {
        let j = (splitmix64(&mut state) % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order
}

/// A dataset's questions as one all-fresh serving batch.
pub fn batch(questions: &[Query], seed: u64) -> Vec<ServeRequest> {
    build_workload(questions, questions.len(), seed)
}

/// serve-epochs inputs: the movies sources minus the held-out ones, the
/// held-out text cut into `SLICES` record slices, and `CYCLES` request
/// streams. Each epoch of a cycle asks its own `EPOCH_QUERIES` slots
/// under query ids unique to the run: with one 100-query set, answer
/// quality depended mostly on which 100 slots the seed drew.
pub struct EpochInputs {
    pub initial: Vec<RawSource>,
    pub slices: Vec<Vec<RawSource>>,
    pub cycles: Vec<Vec<ServeRequest>>,
}

impl EpochInputs {
    pub fn waves(&self) -> usize {
        (SLICES + 1) * WAVES_PER_PUBLISH
    }
}

/// `pool` is the movies question list the epochs draw their slots from.
pub fn epoch_inputs(movies: &Dataset, pool: &[Query], seed: u64) -> EpochInputs {
    let (held, initial): (Vec<RawSource>, Vec<RawSource>) = movies
        .raw
        .iter()
        .cloned()
        .partition(|r| HELD_OUT.contains(&r.name.as_str()));
    assert_eq!(held.len(), HELD_OUT.len(), "held-out sources must exist");
    let split: Vec<(String, Vec<String>)> = held.iter().map(split_records).collect();
    let slices = (0..SLICES)
        .map(|i| {
            held.iter()
                .zip(&split)
                .map(|(raw, (header, records))| {
                    let per = records.len().div_ceil(SLICES);
                    let lo = (i * per).min(records.len());
                    let hi = ((i + 1) * per).min(records.len());
                    RawSource {
                        content: format!("{header}{}", records[lo..hi].concat()),
                        ..raw.clone()
                    }
                })
                .collect()
        })
        .collect();
    let per_epoch = WAVE * WAVES_PER_PUBLISH;
    let mut state = seed ^ 0xe90c_45e7_1d2a_b3c9;
    let cycles = (0..CYCLES)
        .map(|c| {
            (0..=SLICES)
                .flat_map(|e| {
                    let epoch = (c * (SLICES + 1) + e) as u32;
                    let queries = draw(pool, &mut state, epoch * EPOCH_QUERIES as u32);
                    let mut stream = build_workload(&queries, per_epoch, seed ^ u64::from(epoch));
                    for r in &mut stream {
                        r.seq += e as u32 * per_epoch as u32;
                    }
                    stream
                })
                .collect()
        })
        .collect();
    EpochInputs {
        initial,
        slices,
        cycles,
    }
}

/// `EPOCH_QUERIES` distinct questions from `pool` (a seeded partial
/// Fisher–Yates), renumbered from `first_id`.
fn draw(pool: &[Query], state: &mut u64, first_id: u32) -> Vec<Query> {
    let mut idx: Vec<usize> = (0..pool.len()).collect();
    let n = EPOCH_QUERIES.min(pool.len());
    for i in 0..n {
        let j = i + (splitmix64(state) % (pool.len() - i) as u64) as usize;
        idx.swap(i, j);
    }
    idx[..n]
        .iter()
        .zip(first_id..)
        .map(|(&i, id)| Query {
            id,
            ..pool[i].clone()
        })
        .collect()
}

/// Splits a record-oriented source into (header, records), keeping
/// every record's lines together: CSV rows after the header, and KG
/// lines grouped by subject.
fn split_records(raw: &RawSource) -> (String, Vec<String>) {
    let mut lines = raw.content.split_inclusive('\n');
    match raw.format {
        SourceFormat::Csv => {
            let header = lines.next().unwrap_or_default().to_string();
            (header, lines.map(str::to_string).collect())
        }
        SourceFormat::Kg => {
            let mut records: Vec<String> = Vec::new();
            let mut subject = "";
            for line in lines {
                let s = line.split('|').next().unwrap_or_default();
                match records.last_mut() {
                    Some(last) if s == subject => last.push_str(line),
                    _ => records.push(line.to_string()),
                }
                subject = s;
            }
            (String::new(), records)
        }
        other => panic!(
            "held-out source {} has unsliceable format {other:?}",
            raw.name
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::{debug_digest, Fnv};
    use std::hash::Hasher;

    /// Digests of the three generators' outputs for one seed: the
    /// answer-serial question order, the serving request streams, and the
    /// held-out update sequence.
    fn generator_digests(scale: Scale, seed: u64) -> [u64; 3] {
        let data = datasets(scale, seed);
        let graphs: Vec<KnowledgeGraph> = data.iter().map(crate::common::ingest_untimed).collect();
        let questions: Vec<Vec<Query>> = data
            .iter()
            .zip(&graphs)
            .map(|(d, g)| slot_questions(d, g))
            .collect();
        let counts: Vec<usize> = questions.iter().map(Vec::len).collect();
        let mut q = Fnv::default();
        for (d, i) in interleave(&counts, seed) {
            q.write_u64(debug_digest(&questions[d][i]));
        }
        let epochs = epoch_inputs(&data[0], &questions[0], seed);
        let mut r = Fnv::default();
        for qs in &questions {
            r.write_u64(debug_digest(&batch(qs, seed)));
        }
        r.write_u64(debug_digest(&epochs.cycles));
        let mut u = Fnv::default();
        for slice in epochs.slices.iter().flatten() {
            u.write(slice.name.as_bytes());
            u.write(slice.content.as_bytes());
        }
        for initial in &epochs.initial {
            u.write(initial.name.as_bytes());
        }
        [q.finish(), r.finish(), u.finish()]
    }

    #[test]
    fn generators_are_deterministic_and_seed_sensitive() {
        let a = generator_digests(Scale::small(), 42);
        assert_eq!(a, generator_digests(Scale::small(), 42));
        let b = generator_digests(Scale::small(), 43);
        for k in 0..3 {
            assert_ne!(a[k], b[k], "generator {k} ignores the seed");
        }
    }

    #[test]
    fn slices_partition_the_held_out_records() {
        let data = datasets(Scale::small(), 42);
        let pool = slot_questions(&data[0], &crate::common::ingest_untimed(&data[0]));
        let epochs = epoch_inputs(&data[0], &pool, 42);
        assert_eq!(epochs.slices.len(), SLICES);
        assert_eq!(epochs.initial.len() + HELD_OUT.len(), data[0].raw.len());
        for held in data[0]
            .raw
            .iter()
            .filter(|r| HELD_OUT.contains(&r.name.as_str()))
        {
            let (header, records) = split_records(held);
            let rebuilt: String = epochs
                .slices
                .iter()
                .flatten()
                .filter(|s| s.name == held.name)
                .map(|s| {
                    s.content
                        .strip_prefix(header.as_str())
                        .unwrap_or(&s.content)
                })
                .collect();
            assert_eq!(format!("{header}{rebuilt}"), held.content);
            assert!(records.len() >= SLICES, "every slice carries records");
        }
    }

    #[test]
    fn interleave_is_a_permutation() {
        let order = interleave(&[3, 0, 5, 2], 9);
        let mut sorted = order.clone();
        sorted.sort_unstable();
        let expected: Vec<(usize, usize)> = [(0, 3), (2, 5), (3, 2)]
            .iter()
            .flat_map(|&(d, n)| (0..n).map(move |q| (d, q)))
            .collect();
        assert_eq!(sorted, expected);
        assert_ne!(order, expected, "datasets interleave");
    }
}
