//! The paper's evaluation (§6) as callable functions: Table 1 and
//! Figs 9–11.
//!
//! Each `run_*` takes its scale explicitly so the smoke test
//! (`tests/bench_smoke.rs` at the workspace root) can drive the exact
//! binary logic at permille 1 without touching process environment;
//! the binaries are thin wrappers passing `scale_permille()` /
//! `reps()`. System-level throughput, latency and durability are
//! measured by the `perfbench` package and `xvi-cli stress` /
//! `xvi-cli serve`, not here.

use xvi_datagen::{Dataset, UpdateWorkload};
use xvi_fsm::{analyzer, XmlType};
use xvi_hash::collisions::CollisionHistogram;
use xvi_index::{IndexConfig, IndexManager};
use xvi_xml::{Document, NodeKind};

use crate::{load, mb, ms, pct, time, time_mean, Table};

/// Table 1: statistics about the data sets.
///
/// Columns mirror the paper: serialized size, total nodes, text nodes
/// (with share), text nodes holding a (potential) valid double lexical
/// representation (with share), and the number of *non-leaf* nodes
/// whose string value is a complete double — the mixed-content rarity
/// that motivates the semantics-respecting design.
pub fn run_table1(permille: u32) {
    println!("Table 1 — dataset statistics (scale {permille}‰ of default ≈ paper/16)\n");
    let table = Table::new(&[
        ("Data", 8),
        ("Size MB", 8),
        ("Total Nodes", 12),
        ("Text Nodes", 12),
        ("%", 6),
        ("%struct", 8),
        ("Double Values", 14),
        ("%", 6),
        ("non-leaf", 9),
    ]);

    let an = analyzer(XmlType::Double);
    for ds in Dataset::paper_suite() {
        let (xml, doc) = load(ds, permille);
        let stats = doc.stats();

        let mut double_texts = 0usize;
        let mut non_leaf_doubles = 0usize;
        for n in doc.descendants(doc.document_node()) {
            match doc.kind(n) {
                NodeKind::Text(t)
                    // The paper counts text nodes with a *(potential)*
                    // valid double lexical representation.
                    if an.state_of(t).is_some() =>
                {
                    double_texts += 1;
                }
                NodeKind::Element(_) if doc.children(n).count() > 1 => {
                    let sv = doc.string_value(n);
                    let complete = an
                        .state_of(&sv)
                        .map(|s| an.is_complete(s))
                        .unwrap_or(false);
                    if complete {
                        non_leaf_doubles += 1;
                    }
                }
                _ => {}
            }
        }

        table.row(&[
            ds.name(),
            mb(xml.len()),
            stats.total_nodes.to_string(),
            stats.text_nodes.to_string(),
            pct(stats.text_nodes, stats.total_nodes),
            pct(stats.text_nodes, stats.total_nodes - stats.attribute_nodes),
            double_texts.to_string(),
            pct(double_texts, stats.total_nodes),
            non_leaf_doubles.to_string(),
        ]);
    }
    println!(
        "\nShape targets from the paper: text nodes 56-66% of total (the paper's\n\
         node counts exclude attribute nodes — see the %struct column); double\n\
         values 0.1-10% depending on dataset; non-leaf doubles 0 except DBLP (21)\n\
         and PSD (902) — rare but present, hence the semantics-respecting design."
    );
}

/// Figure 9: index creation time and storage overhead.
///
/// Top half — time: shred (parse) time per dataset vs. the extra time
/// to create the string index and the double index. Bottom half —
/// storage: database (document store) size vs. index sizes.
pub fn run_fig9(permille: u32, reps: usize) {
    println!("Figure 9 — creation time and storage overhead (scale {permille}‰, {reps} reps)\n");

    let table = Table::new(&[
        ("Data", 8),
        ("shred ms", 9),
        ("string ms", 10),
        ("str ovh", 8),
        ("double ms", 10),
        ("dbl ovh", 8),
        ("DB MB", 7),
        ("str MB", 7),
        ("str ovh", 8),
        ("dbl MB", 7),
        ("dbl ovh", 8),
    ]);

    for ds in Dataset::paper_suite() {
        let (xml, doc) = load(ds, permille);

        // Shred time: parse the XML text into the document store.
        let shred = time_mean(reps, |_| {
            let d = Document::parse(&xml).unwrap();
            std::hint::black_box(d);
        });

        // Index creation times, each index family on its own, matching
        // the paper's separate "string index time" / "double index
        // time" bars.
        let string_t = time_mean(reps, |_| {
            let idx = IndexManager::build(&doc, IndexConfig::string_only());
            std::hint::black_box(idx);
        });
        let double_t = time_mean(reps, |_| {
            let idx = IndexManager::build(&doc, IndexConfig::typed_only(&[XmlType::Double]));
            std::hint::black_box(idx);
        });

        // Storage.
        let string_idx = IndexManager::build(&doc, IndexConfig::string_only());
        let double_idx = IndexManager::build(&doc, IndexConfig::typed_only(&[XmlType::Double]));
        let db_bytes = doc.stats().arena_bytes;
        let str_bytes = string_idx.stats().string_bytes;
        let dbl_bytes = double_idx.stats().typed[0].bytes;

        let ratio = |t: std::time::Duration, base: std::time::Duration| -> String {
            format!("{:.1}%", 100.0 * t.as_secs_f64() / base.as_secs_f64())
        };

        table.row(&[
            ds.name(),
            ms(shred),
            ms(string_t),
            ratio(string_t, shred),
            ms(double_t),
            ratio(double_t, shred),
            mb(db_bytes),
            mb(str_bytes),
            pct(str_bytes, db_bytes),
            mb(dbl_bytes),
            pct(dbl_bytes, db_bytes),
        ]);
    }

    println!(
        "\nPaper shape: string-index creation ≤ ~10% of shred time, double ≤ ~2%\n\
         (SCT array probe beats hash combination); string-index storage 10-20%\n\
         of DB size, double-index storage 2-3% (1-byte states, few valid doubles)."
    );
}

/// Update batch sizes timed by Figure 10 (clamped to the document's
/// text-node population at small scales).
pub const FIG10_BATCHES: &[usize] = &[1, 10, 100, 1_000, 10_000, 100_000];
const FIG10_BATCH_LABELS: &[&str] = &["1", "10", "100", "1000", "10000", "100000"];

/// Figure 10: update time vs. number of updated nodes, with the
/// full-rebuild alternative alongside as an ablation.
pub fn run_fig10(permille: u32, reps: usize) {
    println!(
        "Figure 10 — update time (ms) vs. number of updated nodes \
         (scale {permille}‰, {reps} reps, mean)\n"
    );

    for (config, label) in [
        (IndexConfig::string_only(), "string index"),
        (IndexConfig::typed_only(&[XmlType::Double]), "double index"),
    ] {
        println!("== {label} ==");
        debug_assert_eq!(FIG10_BATCHES.len(), FIG10_BATCH_LABELS.len());
        let mut headers = vec![("Data", 8)];
        for &l in FIG10_BATCH_LABELS {
            headers.push((l, 9));
        }
        headers.push(("rebuild", 10));
        let table = Table::new(&headers);

        for ds in Dataset::paper_suite() {
            let (_, mut doc) = load(ds, permille);
            let mut idx = IndexManager::build(&doc, config.clone());
            let mut cells = vec![ds.name()];
            for (i, &batch) in FIG10_BATCHES.iter().enumerate() {
                let mut total = std::time::Duration::ZERO;
                for r in 0..reps {
                    let w = UpdateWorkload::generate(&doc, batch, (i * 1000 + r) as u64);
                    let (_, t) = time(|| {
                        idx.update_values(&mut doc, w.as_pairs()).unwrap();
                    });
                    total += t;
                }
                cells.push(ms(total / reps as u32));
            }
            let (_, rebuild) = time(|| {
                let fresh = IndexManager::build(&doc, config.clone());
                std::hint::black_box(fresh);
            });
            cells.push(ms(rebuild));
            table.row(&cells);
        }
        println!();
    }

    println!(
        "Paper shape: sub-linear growth in the batch size; small batches in\n\
         single-digit milliseconds; the double index slightly cheaper than the\n\
         string index; incremental maintenance far below the rebuild column\n\
         until the batch approaches the document size."
    );
}

/// Figure 11: hash stability — the distribution of "how many distinct
/// strings share one hash value" over text and attribute values.
pub fn run_fig11(permille: u32) {
    println!("Figure 11 — hash stability (scale {permille}‰)\n");

    let table = Table::new(&[
        ("Data", 8),
        ("distinct", 10),
        ("hashes", 10),
        ("colliding", 10),
        ("rate", 7),
        ("max k", 6),
        ("k=2", 8),
        ("k=3", 8),
        ("k>=4", 8),
    ]);

    for ds in Dataset::paper_suite() {
        let (_, doc) = load(ds, permille);
        let mut hist = CollisionHistogram::new();
        for n in doc.descendants(doc.document_node()) {
            match doc.kind(n) {
                NodeKind::Text(t) => hist.observe(t),
                NodeKind::Element(_) => {
                    for a in doc.attributes(n) {
                        if let NodeKind::Attribute { value, .. } = doc.kind(a) {
                            hist.observe(value);
                        }
                    }
                }
                _ => {}
            }
        }
        let dist = hist.distribution();
        let k2 = dist.get(&2).copied().unwrap_or(0);
        let k3 = dist.get(&3).copied().unwrap_or(0);
        let k4plus: u64 = dist.iter().filter(|(k, _)| **k >= 4).map(|(_, v)| *v).sum();
        table.row(&[
            ds.name(),
            hist.distinct_strings().to_string(),
            hist.distinct_hashes().to_string(),
            hist.colliding_strings().to_string(),
            format!("{:.2}%", hist.collision_rate() * 100.0),
            hist.max_multiplicity().to_string(),
            k2.to_string(),
            k3.to_string(),
            k4plus.to_string(),
        ]);
    }

    println!(
        "\nPaper shape: collision rate < 1% on most datasets, < 10% on the\n\
         large/URL-heavy ones; the Wiki tail (k up to 9) comes from URLs whose\n\
         distinguishing characters repeat every 27 positions, cancelling out in\n\
         the circular XOR."
    );
}
