//! The paper's evaluation (§6) as callable functions.
//!
//! Each `run_*` takes its scale explicitly so the smoke test
//! (`tests/bench_smoke.rs` at the workspace root) can drive the exact
//! binary logic at permille 1 without touching process environment;
//! the `table1` / `fig9` / `fig10` / `fig11` binaries are thin wrappers
//! passing `scale_permille()` / `reps()`.

use std::sync::{Arc, Barrier};

use xvi_datagen::{ConcurrentConfig, ConcurrentWorkload, Dataset, UpdateWorkload, WorkloadOp};
use xvi_fsm::{analyzer, XmlType};
use xvi_hash::collisions::CollisionHistogram;
use xvi_index::{
    IndexConfig, IndexManager, IndexService, Lookup, Plan, QueryEngine, ServiceConfig,
};
use xvi_xml::{Document, NodeKind};

use crate::{
    load, mb, metrics_out, ms, pct, time, time_mean, time_min_pair, write_metrics_snapshot, Table,
};

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

/// Thread counts swept by the concurrency experiment.
pub const CONC_THREADS: &[usize] = &[1, 2, 4, 8];
/// Group-commit drain limits swept by the concurrency experiment.
pub const CONC_GROUPS: &[usize] = &[1, 8, 64];

/// Concurrency experiment: index-service throughput vs. thread count,
/// for several group-commit batch-size limits.
///
/// The service hosts the paper's eight datasets as eight documents; a
/// zipf-skewed mixed reader/writer workload is split round-robin over
/// the worker threads, which hammer the service behind a start
/// barrier. Because commits commute (§5.1), the run's final state is
/// deterministic and every cell is checked for the expected commit
/// count; at tiny scales the maintained indices are also verified
/// against a fresh rebuild.
pub fn run_concurrency(permille: u32, reps: usize) {
    println!(
        "Concurrency — service throughput, ops/s vs. threads × group-commit \
         limit (scale {permille}‰, {reps} reps)\n"
    );

    // Base documents, parsed once; each cell re-registers clones so
    // every configuration starts from identical state.
    let base: Vec<(String, Document)> = Dataset::paper_suite()
        .into_iter()
        .enumerate()
        .map(|(i, ds)| (format!("d{i}"), load(ds, permille).1))
        .collect();
    let docs: Vec<Document> = base.iter().map(|(_, d)| d.clone()).collect();

    let ops = (2 * permille as usize).clamp(240, 4_000);
    let workload_cfg = ConcurrentConfig {
        ops,
        write_permille: 200,
        writes_per_txn: 4,
        zipf_theta: 0.99,
    };

    let mut headers = vec![("Threads", 8)];
    let group_labels: Vec<String> = CONC_GROUPS.iter().map(|g| format!("group={g}")).collect();
    for l in &group_labels {
        headers.push((l.as_str(), 10));
    }
    let table = Table::new(&headers);

    for &threads in CONC_THREADS {
        let mut cells = vec![threads.to_string()];
        for &max_group in CONC_GROUPS {
            let mut total = std::time::Duration::ZERO;
            for rep in 0..reps {
                // Setup and verification stay outside the timed span.
                let service = Arc::new(IndexService::new(
                    ServiceConfig::with_shards(8).with_max_group(max_group),
                ));
                for (id, doc) in &base {
                    service.insert_document(id.clone(), doc.clone());
                }
                let workload = ConcurrentWorkload::generate(&docs, &workload_cfg, rep as u64);
                let writes = workload.write_count() as u64;
                let ((), t) = time(|| drive(&service, workload, threads));
                total += t;
                assert_eq!(service.commit_count(), writes, "lost or double commits");
                if permille <= 10 {
                    for (id, _) in &base {
                        service
                            .read(id, |doc, idx| idx.verify_against(doc).unwrap())
                            .unwrap();
                    }
                }
            }
            let mean = total / reps.max(1) as u32;
            let ops_per_s = ops as f64 / mean.as_secs_f64();
            cells.push(format!("{ops_per_s:.0}"));
        }
        table.row(&cells);
    }

    println!(
        "\nExpected shape: read-heavy throughput scales with the thread count\n\
         (snapshots are lock-free); under write contention larger group limits\n\
         help because one copy-on-write publish amortises over the whole queue\n\
         — the payoff of §5.1's commutativity argument at the system level."
    );
}

/// In-flight ticket depths swept by the pipelined concurrency
/// experiment.
pub const PIPELINE_DEPTHS: &[usize] = &[1, 8, 64];

/// Pipelined concurrency experiment: **single-thread** commit
/// throughput vs. the number of in-flight `submit` tickets.
///
/// One writer thread drives a write-only zipf-skewed workload over the
/// paper's eight datasets hosted as eight documents. At depth 1 every
/// commit is `submit().wait()` — the old blocking path, one leader
/// round per transaction. At larger depths the writer keeps a window
/// of tickets open and reaps the oldest only when the window is full,
/// so each leader round drains a whole window and coalesces its
/// batches per document — the §5.1 amortisation without any extra
/// threads. The headline number is the depth-64 over depth-1 speedup
/// (expected ≥ 2× on multi-document workloads).
pub fn run_pipelined(permille: u32, reps: usize) {
    println!(
        "Pipelined concurrency — single-thread commit throughput vs. \
         in-flight ticket depth (scale {permille}‰, {reps} reps)\n"
    );

    let base: Vec<(String, Document)> = Dataset::paper_suite()
        .into_iter()
        .enumerate()
        .map(|(i, ds)| (format!("d{i}"), load(ds, permille).1))
        .collect();
    let docs: Vec<Document> = base.iter().map(|(_, d)| d.clone()).collect();
    let ids: Vec<String> = base.iter().map(|(id, _)| id.clone()).collect();

    let ops = (4 * permille as usize).clamp(400, 8_000);
    // Single-write transactions: the workload where per-commit
    // overhead (one leader round, one ancestor repair, one publish per
    // transaction) dominates — exactly what window-depth amortisation
    // is for.
    let workload_cfg = ConcurrentConfig {
        ops,
        write_permille: 1000,
        writes_per_txn: 1,
        zipf_theta: 0.99,
    };

    let table = Table::new(&[("Depth", 8), ("commits/s", 12), ("vs depth 1", 12)]);
    let mut depth1_rate: Option<f64> = None;
    let mut last_speedup = 0.0f64;
    for &depth in PIPELINE_DEPTHS {
        let mut total = std::time::Duration::ZERO;
        let mut commits = 0u64;
        for rep in 0..reps {
            let service = IndexService::new(ServiceConfig::with_shards(8).with_max_group(64));
            for (id, doc) in &base {
                service.insert_document(id.clone(), doc.clone());
            }
            let workload = ConcurrentWorkload::generate(&docs, &workload_cfg, 7_000 + rep as u64);
            let writes = workload.write_count() as u64;
            let ((), t) = time(|| {
                let mut in_flight = std::collections::VecDeque::with_capacity(depth);
                for op in workload.ops {
                    let WorkloadOp::Write { doc, writes } = op else {
                        continue;
                    };
                    let mut txn = service.begin();
                    for (node, value) in writes {
                        txn.set_value(node, value);
                    }
                    in_flight.push_back(service.submit(&ids[doc], txn));
                    if in_flight.len() >= depth {
                        let ticket = in_flight.pop_front().expect("window is full");
                        ticket.wait().expect("workload writes are valid");
                    }
                }
                for ticket in in_flight {
                    ticket.wait().expect("workload writes are valid");
                }
            });
            total += t;
            commits += writes;
            assert_eq!(service.commit_count(), writes, "lost or double commits");
            if permille <= 10 {
                for id in &ids {
                    service
                        .read(id, |doc, idx| idx.verify_against(doc).unwrap())
                        .unwrap();
                }
            }
        }
        let rate = commits as f64 / total.as_secs_f64();
        let speedup = match depth1_rate {
            None => {
                depth1_rate = Some(rate);
                1.0
            }
            Some(base_rate) => rate / base_rate,
        };
        last_speedup = speedup;
        table.row(&[
            depth.to_string(),
            format!("{rate:.0}"),
            format!("{speedup:.2}x"),
        ]);
    }

    println!(
        "\nDepth-{} speedup over depth 1: {last_speedup:.2}x — target >= 2x on this\n\
         multi-document workload at realistic scales (XVI_SCALE >= 100; tiny\n\
         documents leave little ancestor work to amortise). Deeper windows let\n\
         one leader round drain and coalesce a whole window of batches per\n\
         document — §5.1's amortisation, with zero extra threads.",
        PIPELINE_DEPTHS.last().unwrap()
    );
}

/// Divisors of the base scale swept by the COW experiment — the
/// document-size axis, largest document last.
pub const COW_SIZE_DIVISORS: &[u32] = &[16, 4, 1];
/// Writes per commit in the COW experiment (the touched set).
pub const COW_BATCH: usize = 8;
/// Commit rounds measured per document size (per rep).
const COW_COMMITS: usize = 16;

/// COW publish experiment: copy-on-write publish cost vs. document
/// size, with a reader permanently pinning the current version.
///
/// Every commit round re-pins a snapshot of the latest published
/// version before committing, so the group-commit leader can never
/// update in place — every publish takes the copy-on-write branch,
/// the regime a read-heavy service lives in. Two implementations of
/// that branch are timed over identical workloads:
///
/// * **shared** — the live service path: the paged arenas share every
///   page with the pinned snapshot and the publish detaches only the
///   pages the batch touches, so its cost follows the batch size
///   ([`COW_BATCH`] writes) and stays flat across the document-size
///   sweep;
/// * **deep** — the seed behaviour before structural sharing,
///   reproduced with the `deep_clone` escape hatches: the whole
///   `(Document, IndexManager)` pair is copied per publish, so its
///   cost grows linearly with the document.
///
/// The headline number is the deep/shared ratio on the largest
/// document — ≥ 5× at realistic scales (`XVI_SCALE=100` and up; at
/// tiny smoke scales both paths cost microseconds and the ratio is
/// noise).
pub fn run_cow(permille: u32, reps: usize) {
    println!(
        "COW publish — µs/commit with a pinned snapshot, structural sharing vs. \
         deep clone (scale {permille}‰, {reps} reps, {COW_BATCH} writes/commit)\n"
    );

    let ds = Dataset::XMark(8);
    let table = Table::new(&[
        ("Nodes", 9),
        ("doc MB", 8),
        ("shared µs", 10),
        ("deep µs", 10),
        ("speedup", 8),
    ]);
    let mut last_speedup = 0.0f64;
    for &div in COW_SIZE_DIVISORS {
        let p = (permille / div).max(1);
        let (_, doc) = load(ds, p);
        let nodes = doc.stats().total_nodes;
        let doc_mb = mb(doc.stats().arena_bytes);
        // Workload generation is O(document); keep it out of the
        // timed spans.
        let workloads: Vec<UpdateWorkload> = (0..COW_COMMITS * reps)
            .map(|i| UpdateWorkload::generate(&doc, COW_BATCH, 9_000 + i as u64))
            .collect();
        let commits = workloads.len() as f64;

        // Shared-page behaviour: the real service publish path.
        let service = IndexService::new(ServiceConfig::with_shards(1));
        service.insert_document("d", doc.clone());
        let mut pin = service.snapshot("d").expect("registered above");
        let mut shared_total = std::time::Duration::ZERO;
        for w in &workloads {
            let mut txn = service.begin();
            for (n, v) in w.as_pairs() {
                txn.set_value(n, v);
            }
            let ((), t) = time(|| {
                service
                    .commit("d", txn)
                    .expect("updates target live text nodes");
            });
            shared_total += t;
            // Re-pin the reader on the fresh version so the next
            // publish is copy-on-write again.
            pin = service.snapshot("d").expect("registered above");
        }
        assert_eq!(
            service.commit_count(),
            workloads.len() as u64,
            "lost or double commits"
        );
        if p <= 10 {
            service
                .read("d", |doc, idx| idx.verify_against(doc).unwrap())
                .unwrap();
        }
        drop(pin);

        // Seed deep-clone behaviour over the identical workload.
        let mut cur_doc = doc;
        let mut cur_idx = IndexManager::build(&cur_doc, IndexConfig::default());
        let mut deep_total = std::time::Duration::ZERO;
        for w in &workloads {
            let ((), t) = time(|| {
                let mut d = cur_doc.deep_clone();
                let mut i = cur_idx.deep_clone();
                i.update_values(&mut d, w.as_pairs())
                    .expect("updates target live text nodes");
                (cur_doc, cur_idx) = (d, i);
            });
            deep_total += t;
        }

        let shared_us = shared_total.as_secs_f64() * 1e6 / commits;
        let deep_us = deep_total.as_secs_f64() * 1e6 / commits;
        last_speedup = deep_us / shared_us;
        table.row(&[
            nodes.to_string(),
            doc_mb,
            format!("{shared_us:.1}"),
            format!("{deep_us:.1}"),
            format!("{last_speedup:.1}x"),
        ]);
    }

    // Acceptance pins (not just eyeball): shared leaf columns must not
    // erode page-level structural sharing. These are structural and
    // scale-independent — a fresh clone shares every page, and a point
    // write detaches only the touched root-to-leaf path.
    {
        let t: xvi_btree::BPlusTree<u64, u64> =
            xvi_btree::BPlusTree::from_sorted_iter((0..50_000u64).map(|k| (k, k)));
        let mut c = t.clone();
        let s = c.stats();
        assert_eq!(
            s.shared_pages, s.pages,
            "fresh clone must share every page ({}/{} shared)",
            s.shared_pages, s.pages
        );
        c.insert(50_000, 0);
        let s = c.stats();
        assert!(
            s.shared_pages * 10 >= s.pages * 9,
            "one point write detached too many pages: {}/{} still shared",
            s.shared_pages,
            s.pages
        );
    }
    // The headline deep/shared publish ratio is only meaningful at
    // realistic scales; at smoke scales both paths cost microseconds.
    if permille >= 100 {
        assert!(
            last_speedup >= 5.0,
            "shared-page publish speedup regressed: {last_speedup:.1}x < 5x"
        );
    }

    println!(
        "\nLargest-document speedup of shared-page over deep-clone publishes:\n\
         {last_speedup:.1}x — target >= 5x from XVI_SCALE=100 up (asserted). Expected\n\
         shape: the shared column stays flat across the size sweep (cost follows\n\
         the {COW_BATCH}-write touched set), the deep column grows with the document."
    );
}

/// Divisors of the base scale swept by the WAL experiment — the
/// document-size axis, largest document last.
pub const WAL_SIZE_DIVISORS: &[u32] = &[16, 4, 1];
/// Writes per commit in the WAL experiment (the logged delta).
pub const WAL_BATCH: usize = 8;
/// Commit rounds measured per document size (per rep).
const WAL_COMMITS: usize = 12;

/// WAL durability experiment: durable-commit latency vs. document
/// size, per-shard write-ahead logging vs. per-commit full catalog
/// saves.
///
/// Three configurations are timed over identical workloads on a size
/// sweep of the same dataset:
///
/// * **base** — an ephemeral service: the pure in-memory commit
///   (index maintenance grows mildly with tree depth), the floor any
///   durability strategy pays on top of;
/// * **wal** — the service's [`Durability::Wal`] path: the group
///   leader appends the coalesced batch as one framed, checksummed
///   record and issues one fsync before publishing, so the durable
///   *overhead* per commit (`wal − base`, the `+fsync` column) is
///   O([`WAL_BATCH`]-write delta) and should stay ~flat as the
///   document grows (fsync latency dominates and is size-independent);
/// * **save** — the durability story before the WAL: a full
///   `save_catalog` (every document's XML plus the manifest) after
///   every commit, whose cost is O(catalog) and grows linearly with
///   the document.
///
/// At tiny scales the WAL run also exercises recovery: the service is
/// dropped mid-life and reopened from its log, and the recovered
/// version count and indices are checked.
///
/// [`Durability::Wal`]: xvi_index::Durability::Wal
pub fn run_wal(permille: u32, reps: usize) {
    println!(
        "WAL — durable-commit µs vs. document size, group-fsync WAL vs. \
         per-commit full catalog save (scale {permille}‰, {reps} reps, \
         {WAL_BATCH} writes/commit)\n"
    );

    let ds = Dataset::XMark(8);
    let table = Table::new(&[
        ("Nodes", 9),
        ("doc MB", 8),
        ("base µs", 9),
        ("wal µs", 9),
        ("+fsync µs", 10),
        ("save µs", 10),
        ("speedup", 8),
    ]);
    let scratch = std::env::temp_dir().join(format!("xvi-bench-wal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);

    // Phase 1 — the in-memory baseline and the WAL path, for every
    // document size. The catalog saves run in a second phase so their
    // hundreds of megabytes of background writeback cannot inflate
    // the tiny WAL fsyncs measured here.
    struct Cell {
        doc: xvi_index::Document,
        workloads: Vec<UpdateWorkload>,
        nodes: usize,
        doc_mb: String,
        base_us: f64,
        wal_us: f64,
    }
    let mut cells: Vec<Cell> = Vec::new();
    for &div in WAL_SIZE_DIVISORS {
        let p = (permille / div).max(1);
        let (_, doc) = load(ds, p);
        let nodes = doc.stats().total_nodes;
        let doc_mb = mb(doc.stats().arena_bytes);
        // Workload generation is O(document); keep it out of the
        // timed spans.
        let workloads: Vec<UpdateWorkload> = (0..WAL_COMMITS * reps)
            .map(|i| UpdateWorkload::generate(&doc, WAL_BATCH, 11_000 + i as u64))
            .collect();
        let commits = workloads.len() as f64;

        // Ephemeral baseline: the pure in-memory commit cost that
        // every durability strategy sits on top of.
        let service = IndexService::new(ServiceConfig::with_shards(1));
        service.insert_document("d", doc.clone());
        let mut base_total = std::time::Duration::ZERO;
        for w in &workloads {
            let mut txn = service.begin();
            for (n, v) in w.as_pairs() {
                txn.set_value(n, v);
            }
            let ((), t) = time(|| {
                service
                    .commit("d", txn)
                    .expect("updates target live text nodes");
            });
            base_total += t;
        }

        // WAL-backed service: one log record + one fsync per commit.
        let wal_dir = scratch.join(format!("wal-{div}"));
        let service = IndexService::new(ServiceConfig::with_shards(1).with_wal(&wal_dir));
        service.insert_document("d", doc.clone());
        let mut wal_total = std::time::Duration::ZERO;
        for w in &workloads {
            let mut txn = service.begin();
            for (n, v) in w.as_pairs() {
                txn.set_value(n, v);
            }
            let ((), t) = time(|| {
                service
                    .commit("d", txn)
                    .expect("updates target live text nodes");
            });
            wal_total += t;
        }
        assert_eq!(
            service.commit_count(),
            workloads.len() as u64,
            "lost or double commits"
        );
        if p <= 10 {
            // Recovery smoke: "crash" (drop) and reopen from the log.
            let version = service.version_of("d");
            drop(service);
            let recovered = IndexService::open(ServiceConfig::with_shards(1).with_wal(&wal_dir))
                .expect("recovery from the WAL directory");
            assert_eq!(recovered.version_of("d"), version, "recovery lost commits");
            recovered
                .read("d", |doc, idx| idx.verify_against(doc).unwrap())
                .unwrap();
        }

        cells.push(Cell {
            doc,
            workloads,
            nodes,
            doc_mb,
            base_us: base_total.as_secs_f64() * 1e6 / commits,
            wal_us: wal_total.as_secs_f64() * 1e6 / commits,
        });
    }

    // Phase 2 — the pre-WAL durability story: a full catalog save
    // (XML plus manifest) after every commit.
    let mut first_over_us: Option<f64> = None;
    let mut last_over_us = 0.0f64;
    let mut last_speedup = 0.0f64;
    for (cell, &div) in cells.iter().zip(WAL_SIZE_DIVISORS) {
        let save_dir = scratch.join(format!("save-{div}"));
        let service = IndexService::new(ServiceConfig::with_shards(1));
        service.insert_document("d", cell.doc.clone());
        let mut save_total = std::time::Duration::ZERO;
        for w in &cell.workloads {
            let mut txn = service.begin();
            for (n, v) in w.as_pairs() {
                txn.set_value(n, v);
            }
            let ((), t) = time(|| {
                service
                    .commit("d", txn)
                    .expect("updates target live text nodes");
                service.save_catalog(&save_dir).expect("full catalog save");
            });
            save_total += t;
        }

        let save_us = save_total.as_secs_f64() * 1e6 / cell.workloads.len() as f64;
        let over_us = (cell.wal_us - cell.base_us).max(0.0);
        first_over_us.get_or_insert(over_us);
        last_over_us = over_us;
        last_speedup = save_us / cell.wal_us;
        table.row(&[
            cell.nodes.to_string(),
            cell.doc_mb.clone(),
            format!("{:.1}", cell.base_us),
            format!("{:.1}", cell.wal_us),
            format!("{over_us:.1}"),
            format!("{save_us:.1}"),
            format!("{last_speedup:.1}x"),
        ]);
    }
    let _ = std::fs::remove_dir_all(&scratch);

    let sweep = WAL_SIZE_DIVISORS[0] / WAL_SIZE_DIVISORS[WAL_SIZE_DIVISORS.len() - 1].max(1);
    let growth = last_over_us / first_over_us.unwrap_or(last_over_us).max(1.0);
    println!(
        "\nWAL durability overhead (+fsync column: durable commit minus the\n\
         in-memory baseline) grew {growth:.1}x across a {sweep}x document-size sweep\n\
         (target: ~flat — the log record is O({WAL_BATCH}-write delta) and the group\n\
         fsync is size-independent), while the full catalog save column grows\n\
         with the document. Largest-document speedup of the WAL over\n\
         per-commit catalog saves: {last_speedup:.1}x."
    );
}

/// Multi-predicate XMark queries swept by the planner experiment. The
/// final predicate of each is the *least* selective one — the
/// adversarial ordering for the old last-predicate heuristic.
pub const PLANNER_QUERIES: &[(&str, &str)] = &[
    (
        "age-vs-education",
        "//person[.//age = 42][.//education = \"Graduate School\"]",
    ),
    (
        "age-vs-quantity",
        "//item[.//quantity = 3][.//quantity >= 1]",
    ),
];

/// Planner experiment: cost-based plans vs. the pre-statistics
/// planner on multi-predicate XMark queries.
///
/// The old `QueryEngine::plan` only ever lowered a *lone* final-step
/// predicate — faced with two predicates it scanned outright, so the
/// honest old-vs-new comparison on these queries is the **scan**
/// column. The **last** column additionally isolates the value of
/// cost-based *choice*: it extends the old last-predicate heuristic
/// to multi-predicate queries by forcing the final step's final
/// plannable predicate — which on these queries is the *least*
/// selective one (every XMark person's `<education>` is the literal
/// `"Graduate School"`), the adversarial pick a selectivity-blind
/// planner makes. The cost-based planner ranks every predicate by its
/// statistics estimate ([`IndexManager::estimate`]) and probes the
/// most selective one instead. Three timings per query:
///
/// * **cost** — the plan [`QueryEngine::plan`] actually picks;
/// * **last** — the last-predicate heuristic extended to
///   multi-predicate queries (forced, selectivity-blind);
/// * **scan** — the old planner's actual behavior on these queries,
///   and the no-index baseline.
///
/// The headline number is the cost-over-last speedup on the first
/// query — target ≥ 2× from `XVI_SCALE=100` up (tiny documents leave
/// too few candidates for the plans to differ measurably); the
/// cost-over-scan column is the speedup over the shipped old
/// behavior. All three evaluations are checked for identical results
/// at every scale.
pub fn run_planner(permille: u32, reps: usize) {
    println!(
        "Planner — cost-based vs. last-predicate plans on multi-predicate \
         XMark queries (scale {permille}‰, {reps} reps)\n"
    );

    let (_, doc) = load(Dataset::XMark(1), permille);
    let idx = IndexManager::build(&doc, IndexConfig::default());

    let table = Table::new(&[
        ("Query", 18),
        ("plan", 11),
        ("est/actual", 12),
        ("cost ms", 9),
        ("last ms", 9),
        ("scan ms", 9),
        ("vs last", 8),
        ("vs scan", 8),
    ]);

    let mut headline = 0.0f64;
    for (i, (name, query_str)) in PLANNER_QUERIES.iter().enumerate() {
        let query = QueryEngine::parse(query_str).expect("planner queries parse");
        let probes = QueryEngine::candidate_probes(&idx, &query);
        assert!(
            probes.len() >= 2,
            "{name}: both predicates must be plannable"
        );

        let cost_plan = QueryEngine::plan(&idx, &query);
        // The old heuristic: the final step's final plannable
        // predicate, selectivity unseen.
        let last_probe = probes
            .iter()
            .max_by_key(|p| (p.step, p.pred))
            .expect("non-empty")
            .clone();
        let last_plan = Plan::Index(last_probe.clone());

        let cost_result = QueryEngine::evaluate_with_plan(&doc, &idx, &query, &cost_plan);
        assert_eq!(
            cost_result,
            QueryEngine::evaluate_with_plan(&doc, &idx, &query, &last_plan),
            "{name}: plans disagree"
        );
        assert_eq!(
            cost_result,
            QueryEngine::evaluate_scan(&doc, &query),
            "{name}: index plans disagree with the scan"
        );

        let cost_t = time_mean(reps, |_| {
            std::hint::black_box(QueryEngine::evaluate_with_plan(
                &doc, &idx, &query, &cost_plan,
            ));
        });
        let last_t = time_mean(reps, |_| {
            std::hint::black_box(QueryEngine::evaluate_with_plan(
                &doc, &idx, &query, &last_plan,
            ));
        });
        let scan_t = time_mean(reps, |_| {
            std::hint::black_box(QueryEngine::evaluate_scan(&doc, &query));
        });

        let vs_last = last_t.as_secs_f64() / cost_t.as_secs_f64();
        let vs_scan = scan_t.as_secs_f64() / cost_t.as_secs_f64();
        if i == 0 {
            headline = vs_last;
        }
        let chosen = match &cost_plan {
            Plan::Index(p) => {
                let actual = idx.query(&doc, &p.lookup).expect("plannable").len();
                (
                    format!("probe s{}", p.step + 1),
                    format!("{}/{}", p.estimate.estimate, actual),
                )
            }
            Plan::Intersect(a, _) => {
                let actual = idx.query(&doc, &a.lookup).expect("plannable").len();
                (
                    "intersect".to_string(),
                    format!("{}/{}", a.estimate.estimate, actual),
                )
            }
            Plan::Scan => ("scan".to_string(), "-".to_string()),
        };
        table.row(&[
            (*name).to_string(),
            chosen.0,
            chosen.1,
            ms(cost_t),
            ms(last_t),
            ms(scan_t),
            format!("{vs_last:.2}x"),
            format!("{vs_scan:.2}x"),
        ]);
    }

    println!(
        "\nHeadline (first query, cost-based over forced last-predicate):\n\
         {headline:.2}x — target >= 2x from XVI_SCALE=100 up. The last predicate\n\
         of each query matches (nearly) every person or item, so the\n\
         selectivity-blind pick probes and reverse-matches the fattest candidate\n\
         set; the statistics-ranked plan probes the selective predicate instead.\n\
         (The pre-statistics planner scanned outright on any multi-predicate\n\
         query, so `vs scan` is the speedup over the shipped old behavior.)"
    );
}

/// Exact aggregates from the monoid summaries: `count_range` against
/// the full index scan, on XMark range and equality probes of varying
/// selectivity.
///
/// Every exact count is asserted identical to the scan's answer, and
/// the probe counter is asserted within its `2·depth + 1` budget —
/// the benchmark doubles as an end-to-end correctness gate for the
/// summary maintenance under a real document's tree shapes.
pub fn run_aggregates(permille: u32, reps: usize) {
    println!(
        "Aggregates — exact count_range (monoid summaries) vs. full scan \
         (scale {permille}‰, {reps} reps)\n"
    );

    let (_, doc) = load(Dataset::XMark(1), permille);
    let idx = IndexManager::build(&doc, IndexConfig::default());
    let typed = idx.typed_index(XmlType::Double).expect("double index");
    let string = idx.string_index().expect("string index");
    let depth = typed.value_tree_stats().depth;

    // Range probes from near-everything down to near-nothing, plus two
    // equality probes (a common value and an absent one).
    let ranges: &[(&str, f64, f64)] = &[
        ("range all", f64::NEG_INFINITY, f64::INFINITY),
        ("range wide", 0.0, 10_000.0),
        ("range mid", 50.0, 500.0),
        ("range narrow", 100.0, 102.5),
        ("range empty", 9e15, 9.1e15),
    ];

    let table = Table::new(&[
        ("Probe", 14),
        ("answer", 10),
        ("probes", 8),
        ("exact µs", 10),
        ("scan µs", 10),
        ("vs scan", 9),
    ]);

    let us = |d: std::time::Duration| format!("{:.2}", d.as_secs_f64() * 1e6);
    let mut headline = 0.0f64;

    for (i, &(name, lo, hi)) in ranges.iter().enumerate() {
        let bounds = xvi_index::Bounds::from_range(lo..=hi);
        let truth = typed.range(lo..=hi).len();
        let (exact, probes) = typed.count_range_probed(&bounds);
        assert_eq!(exact, truth, "{name}: exact count disagrees with scan");
        assert!(
            probes <= 2 * depth + 1,
            "{name}: {probes} probes exceeds 2·{depth}+1"
        );

        let exact_t = time_mean(reps, |_| {
            std::hint::black_box(typed.estimate_range(&bounds));
        });
        let scan_t = time_mean(reps, |_| {
            std::hint::black_box(typed.range(lo..=hi).len());
        });
        let vs_scan = scan_t.as_secs_f64() / exact_t.as_secs_f64();
        if i == 0 {
            headline = vs_scan;
        }
        table.row(&[
            name.to_string(),
            exact.to_string(),
            probes.to_string(),
            us(exact_t),
            us(scan_t),
            format!("{vs_scan:.1}x"),
        ]);
    }

    // Equality probes against the string tree.
    let numbers = string.len();
    for (name, value) in [("equi common", "1"), ("equi absent", "no such value")] {
        let hash = xvi_hash::hash_str(value);
        let truth = string.candidates(hash).len();
        let exact = string.estimate_equi(hash);
        assert_eq!(exact.estimate, truth, "{name}: exact equi count diverged");
        assert_eq!((exact.lower, exact.upper), (truth, truth));

        let exact_t = time_mean(reps, |_| {
            std::hint::black_box(string.estimate_equi(hash));
        });
        let scan_t = time_mean(reps, |_| {
            std::hint::black_box(string.candidates(hash).len());
        });
        table.row(&[
            name.to_string(),
            exact.estimate.to_string(),
            "-".to_string(),
            us(exact_t),
            us(scan_t),
            format!("{:.1}x", scan_t.as_secs_f64() / exact_t.as_secs_f64()),
        ]);
    }

    println!(
        "\nHeadline (widest range, exact count over materialised scan):\n\
         {headline:.1}x on {numbers} indexed strings — the summary walk visits\n\
         at most 2·depth+1 = {budget} nodes regardless of how many entries the\n\
         range covers, where the scan's cost is the answer itself.",
        budget = 2 * depth + 1
    );
}

/// Executes a workload against the service on `threads` barrier-
/// synchronised worker threads, blocking until all operations finish.
pub fn drive(service: &Arc<IndexService>, workload: ConcurrentWorkload, threads: usize) {
    // Doc-id strings are precomputed so the timed loop does not
    // allocate one per operation.
    let max_doc = workload.ops.iter().map(WorkloadOp::doc).max().unwrap_or(0);
    let ids: Arc<Vec<String>> = Arc::new((0..=max_doc).map(|i| format!("d{i}")).collect());
    let shards = workload.into_shards(threads);
    let barrier = Arc::new(Barrier::new(threads));
    let handles: Vec<_> = shards
        .into_iter()
        .map(|ops| {
            let service = Arc::clone(service);
            let barrier = Arc::clone(&barrier);
            let ids = Arc::clone(&ids);
            std::thread::spawn(move || {
                barrier.wait();
                for op in ops {
                    let id = &ids[op.doc()];
                    match op {
                        WorkloadOp::Write { writes, .. } => {
                            let mut txn = service.begin();
                            for (node, value) in writes {
                                txn.set_value(node, value);
                            }
                            service.commit(id, txn).expect("workload writes are valid");
                        }
                        WorkloadOp::ReadEqui { value, .. } => {
                            let hits = service
                                .read(id, |doc, idx| {
                                    idx.query(doc, &Lookup::equi(&value)).unwrap().len()
                                })
                                .expect("workload documents are registered");
                            std::hint::black_box(hits);
                        }
                        WorkloadOp::ReadRange { lo, hi, .. } => {
                            let hits = service
                                .read(id, |doc, idx| {
                                    idx.query(doc, &Lookup::range_f64(lo..=hi)).unwrap().len()
                                })
                                .expect("workload documents are registered");
                            std::hint::black_box(hits);
                        }
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("worker thread panicked");
    }
}

/// Open-loop arrival rates (requests/second) swept by the serving
/// experiment. `u64::MAX` means "submit as fast as possible" — the
/// deliberately-saturating top of the sweep.
pub const SERVE_RATES: &[u64] = &[5_000, 50_000, u64::MAX];

/// Serving experiment: open-loop latency percentiles vs. arrival rate
/// through the `xvi-serve` frontend.
///
/// A generator thread submits a 90/10 query/commit mix from four
/// tenants at a fixed arrival rate **without waiting for completions**
/// (open loop — a closed loop would let the server's backpressure slow
/// the generator down and hide the tail). Each rate gets a fresh
/// server; the reported p50/p99/p999 come from the server's own
/// log-bucketed latency histogram, admission → completion.
///
/// The top "rate" is unbounded: the generator outruns the service, the
/// bounded tenant queues fill, and the server must shed load with
/// typed `Overloaded` rejections while the *admitted* requests' p99
/// stays bounded by the queue depth — which is the whole argument for
/// admission control over unbounded buffering.
pub fn run_serve(permille: u32, reps: usize) {
    use xvi_serve::{Request, Server, ServerConfig};

    println!(
        "Serving — open-loop latency percentiles vs. arrival rate \
         (scale {permille}‰, {reps} reps)\n"
    );

    let base: Vec<(String, Document)> = Dataset::paper_suite()
        .into_iter()
        .enumerate()
        .map(|(i, ds)| (format!("d{i}"), load(ds, permille).1))
        .collect();
    // One writable value node per document, for the commit mix.
    let value_nodes: Vec<xvi_xml::NodeId> = base
        .iter()
        .map(|(_, doc)| {
            doc.descendants_or_self(doc.document_node())
                .find(|&n| doc.kind(n).has_direct_value())
                .expect("generated documents contain text")
        })
        .collect();
    let tenants = ["t0", "t1", "t2", "t3"];
    let ops = (8 * permille as usize).clamp(2_000, 20_000);

    let table = Table::new(&[
        ("Rate req/s", 12),
        ("admitted", 10),
        ("rejected", 10),
        ("p50", 10),
        ("p90", 10),
        ("p99", 10),
        ("p999", 10),
    ]);

    // Registry snapshot of the last completed rep, for `--metrics-out`:
    // by then the counters cover a full saturating sweep step.
    let mut final_snapshot: Option<xvi_obs::RegistrySnapshot> = None;

    for &rate in SERVE_RATES {
        let mut merged: Option<xvi_serve::HistogramSnapshot> = None;
        let mut admitted = 0u64;
        let mut rejected = 0u64;
        for _ in 0..reps.max(1) {
            let service = Arc::new(IndexService::new(ServiceConfig::with_shards(4)));
            for (id, doc) in &base {
                service.insert_document(id.clone(), doc.clone());
            }
            let server = Server::new(
                Arc::clone(&service),
                ServerConfig {
                    workers: 4,
                    max_in_flight: 8,
                    tenant_queue: 64,
                    ..ServerConfig::default()
                },
            );
            let interval = if rate == u64::MAX {
                std::time::Duration::ZERO
            } else {
                std::time::Duration::from_secs_f64(1.0 / rate as f64)
            };
            let start = std::time::Instant::now();
            for i in 0..ops {
                // Open-loop pacing: arrival i fires at start + i·interval
                // regardless of how far behind the server is.
                let target = start + interval * i as u32;
                while std::time::Instant::now() < target {
                    std::hint::spin_loop();
                }
                let (doc_id, _) = &base[i % base.len()];
                let request = if i % 10 == 9 {
                    let mut txn = service.begin();
                    txn.set_value(value_nodes[i % base.len()], format!("v{i}"));
                    Request::Commit {
                        doc: doc_id.clone(),
                        txn,
                    }
                } else {
                    Request::Query {
                        doc: doc_id.clone(),
                        lookup: Lookup::range_f64(10.0..=20.0),
                    }
                };
                // Fire-and-forget: completions are reaped by drain();
                // rejected requests are simply shed, as an open-loop
                // client would.
                let _ = server.submit(tenants[i % tenants.len()], request);
            }
            server.drain();
            let stats = server.stats();
            admitted += stats.admitted;
            rejected += stats.rejected;
            match &mut merged {
                Some(m) => m.merge(&stats.latency),
                None => merged = Some(stats.latency),
            }
            server.shutdown();
            final_snapshot = Some(service.obs().registry.snapshot());
        }
        let hist = merged.expect("at least one rep");
        let rate_label = if rate == u64::MAX {
            "open".to_string()
        } else {
            rate.to_string()
        };
        table.row(&[
            rate_label,
            admitted.to_string(),
            format!(
                "{rejected} ({})",
                pct(rejected as usize, (admitted + rejected) as usize)
            ),
            format!("{:?}", hist.percentile(0.50)),
            format!("{:?}", hist.percentile(0.90)),
            format!("{:?}", hist.percentile(0.99)),
            format!("{:?}", hist.percentile(0.999)),
        ]);
        if rate == u64::MAX {
            // The saturating point of the sweep must actually saturate:
            // bounded queues shed load instead of buffering without
            // limit, and what *was* admitted still completes in
            // queue-bounded time.
            assert!(
                rejected > 0,
                "unbounded arrival rate must overflow the bounded admission queues"
            );
        }
        assert_eq!(
            hist.count(),
            admitted,
            "every admitted request records exactly one latency sample"
        );
    }

    println!(
        "\nExpected shape: below saturation rejections are zero and the tail\n\
         tracks service time; at the open (unbounded) rate the bounded tenant\n\
         queues reject the overflow while the admitted p99 stays bounded by\n\
         queue depth × service time — admission control turns overload into\n\
         typed, retryable feedback instead of unbounded queueing delay."
    );

    if let Some(path) = metrics_out() {
        let snap = final_snapshot.expect("at least one rep ran");
        write_metrics_snapshot(&snap, &path)
            .unwrap_or_else(|e| panic!("--metrics-out {path}: {e}"));
        println!(
            "\nwrote metrics snapshot ({} series) to {path} and {path}.json",
            snap.series_names().len()
        );
    }
}

// ---------------------------------------------------------------------------

/// Tree keys per scale permille in the lookup experiment: the default
/// `XVI_SCALE=1000` probes a million-key tree.
const LOOKUP_KEYS_PER_PERMILLE: usize = 1_000;
/// Entries returned by each short-range probe.
const LOOKUP_RANGE_LEN: u64 = 16;
/// Skew of the zipf probe stream: document popularity for the
/// burst-per-query model of [`zipf_probes`]. 2.0 models the
/// workload's steady state between popularity shifts, where a couple
/// of trending documents absorb almost all queries: at a million-key
/// scale ~83% of query bursts land in the four hottest posting
/// blocks.
///
/// [`zipf_probes`]: xvi_datagen::probes::zipf_probes
const LOOKUP_ZIPF_THETA: f64 = 2.0;

/// Descent fast paths: point and short-range probe latency over
/// uniform / sorted / zipf key streams, branch-cached descents
/// ([`get`]/[`range`]) vs. the cold root-walk baseline
/// ([`get_cold`]/[`range_cold`]).
///
/// Warm and cold answers are asserted identical on a prefix of every
/// stream before anything is timed (the `cache_props` suite covers
/// arbitrary mutation histories). Warm and cold reps are interleaved
/// and the reported speedup is the *median* of the per-rep ratios
/// (see [`time_min_pair`]); the ns columns are per-side minima.
/// Besides the printed table the run writes machine-readable results
/// to `BENCH_lookup.json` in the working directory, so CI accumulates
/// a perf trajectory for future PRs to compare against.
///
/// [`time_min_pair`]: crate::time_min_pair
///
/// Expected shape: sorted and zipf streams resolve almost every probe
/// at or near the cached leaf (≥ 2× over the cold walk at
/// `XVI_SCALE=1000`); uniform probes mostly miss, and the top-down
/// fence verification keeps that miss overhead within ~10% of the
/// cold walk.
///
/// [`get`]: xvi_btree::BPlusTree::get
/// [`range`]: xvi_btree::BPlusTree::range
/// [`get_cold`]: xvi_btree::BPlusTree::get_cold
/// [`range_cold`]: xvi_btree::BPlusTree::range_cold
pub fn run_lookup(permille: u32, reps: usize) {
    use xvi_btree::BPlusTree;
    use xvi_datagen::probes::{sorted_probes, uniform_probes, zipf_probes};

    let n = (permille as usize).max(1) * LOOKUP_KEYS_PER_PERMILLE;
    let point_ops = (n * 2).clamp(4_000, 400_000);
    let range_ops = point_ops / 4;
    println!(
        "Lookup — ns/probe, branch-cached descent vs. cold root walk \
         (scale {permille}‰: {n} keys, {point_ops} point / {range_ops} range \
         probes per stream, {reps} reps)\n"
    );

    // Values are a cheap permutation of the key so the timed loops
    // fold real data.
    let tree: BPlusTree<u64, u64> =
        BPlusTree::from_sorted_iter((0..n as u64).map(|k| (k, k.wrapping_mul(0x9E37_79B9))));

    let streams: [(&str, Vec<usize>); 3] = [
        ("uniform", uniform_probes(n, point_ops, 0xA11CE)),
        ("sorted", sorted_probes(n, point_ops, 0xB0B)),
        ("zipf", zipf_probes(n, point_ops, LOOKUP_ZIPF_THETA, 0xCAFE)),
    ];

    let table = Table::new(&[
        ("Stream", 8),
        ("op", 6),
        ("warm ns", 9),
        ("cold ns", 9),
        ("speedup", 8),
        ("hit %", 7),
    ]);

    let mut json_rows: Vec<String> = Vec::new();
    for (name, probes) in &streams {
        // Differential pass, untimed: the cached path must return
        // byte-identical answers to the cold walk.
        for &k in probes.iter().take(4_000) {
            let k = k as u64;
            assert_eq!(
                tree.get(&k),
                tree.get_cold(&k),
                "{name}: warm/cold point answers diverge at key {k}"
            );
        }
        for &k in probes.iter().take(1_000) {
            let k = k as u64;
            let warm: Vec<(u64, u64)> = tree
                .range(k..k + LOOKUP_RANGE_LEN)
                .map(|(a, b)| (*a, *b))
                .collect();
            let cold: Vec<(u64, u64)> = tree
                .range_cold(k..k + LOOKUP_RANGE_LEN)
                .map(|(a, b)| (*a, *b))
                .collect();
            assert_eq!(
                warm, cold,
                "{name}: warm/cold range answers diverge at key {k}"
            );
        }

        // Untimed warm-up over the full stream so the timed warm and
        // cold loops start from the same CPU-cache state (the first
        // timed loop would otherwise pay every compulsory miss for
        // the tree pages and donate the warmed cache to the second).
        let mut acc = 0u64;
        for &k in probes {
            acc = acc.wrapping_add(*tree.get_cold(&(k as u64)).expect("key present"));
        }
        std::hint::black_box(acc);

        // Point probes, warm and cold interleaved per rep (see
        // [`time_min_pair`]) so cache/TLB drift across the run hits
        // both sides equally. `XVI_LOOKUP_AB=1` turns the warm side
        // into a second cold walk — an A/A run whose ratios should sit
        // at ~1.0; use it to validate the harness on new hardware
        // before trusting any A/B number it prints.
        let ab = std::env::var_os("XVI_LOOKUP_AB").is_some();
        let before = tree.descent_cache_counters();
        let (warm, cold, speedup) = time_min_pair(
            reps,
            |_| {
                let mut acc = 0u64;
                for &k in probes {
                    acc = acc.wrapping_add(if ab {
                        *tree.get_cold(&(k as u64)).expect("key present")
                    } else {
                        *tree.get(&(k as u64)).expect("key present")
                    });
                }
                std::hint::black_box(acc);
            },
            |_| {
                let mut acc = 0u64;
                for &k in probes {
                    acc = acc.wrapping_add(*tree.get_cold(&(k as u64)).expect("key present"));
                }
                std::hint::black_box(acc);
            },
        );
        let after = tree.descent_cache_counters();
        let (hits, partials, misses) = (after.0 - before.0, after.1 - before.1, after.2 - before.2);
        let total = (hits + partials + misses).max(1);
        let hit_pct = 100.0 * (hits + partials) as f64 / total as f64;
        if std::env::var_os("XVI_LOOKUP_DEBUG").is_some() {
            eprintln!("  [{name}] hits={hits} partials={partials} misses={misses}");
        }
        let warm_ns = warm.as_secs_f64() * 1e9 / point_ops as f64;
        let cold_ns = cold.as_secs_f64() * 1e9 / point_ops as f64;
        table.row(&[
            name.to_string(),
            "point".into(),
            format!("{warm_ns:.1}"),
            format!("{cold_ns:.1}"),
            format!("{speedup:.2}x"),
            format!("{hit_pct:.1}"),
        ]);
        json_rows.push(format!(
            "{{\"stream\":\"{name}\",\"op\":\"point\",\"warm_ns\":{warm_ns:.2},\
             \"cold_ns\":{cold_ns:.2},\"speedup\":{speedup:.3},\"hit_pct\":{hit_pct:.2}}}"
        ));

        // Short-range probes over a prefix of the same stream, again
        // interleaved.
        let rprobes = &probes[..range_ops];
        let (warm, cold, speedup) = time_min_pair(
            reps,
            |_| {
                let mut acc = 0u64;
                for &k in rprobes {
                    let k = k as u64;
                    for (_, v) in tree.range(k..k + LOOKUP_RANGE_LEN) {
                        acc = acc.wrapping_add(*v);
                    }
                }
                std::hint::black_box(acc);
            },
            |_| {
                let mut acc = 0u64;
                for &k in rprobes {
                    let k = k as u64;
                    for (_, v) in tree.range_cold(k..k + LOOKUP_RANGE_LEN) {
                        acc = acc.wrapping_add(*v);
                    }
                }
                std::hint::black_box(acc);
            },
        );
        let warm_ns = warm.as_secs_f64() * 1e9 / range_ops as f64;
        let cold_ns = cold.as_secs_f64() * 1e9 / range_ops as f64;
        table.row(&[
            name.to_string(),
            "range".into(),
            format!("{warm_ns:.1}"),
            format!("{cold_ns:.1}"),
            format!("{speedup:.2}x"),
            "-".into(),
        ]);
        json_rows.push(format!(
            "{{\"stream\":\"{name}\",\"op\":\"range\",\"warm_ns\":{warm_ns:.2},\
             \"cold_ns\":{cold_ns:.2},\"speedup\":{speedup:.3}}}"
        ));
    }

    let json = format!(
        "{{\"mode\":\"lookup\",\"scale_permille\":{permille},\"keys\":{n},\
         \"point_probes\":{point_ops},\"range_probes\":{range_ops},\"reps\":{reps},\
         \"results\":[{}]}}\n",
        json_rows.join(",")
    );
    std::fs::write("BENCH_lookup.json", &json).expect("write BENCH_lookup.json");

    println!(
        "\nWrote BENCH_lookup.json. Targets at XVI_SCALE=1000: sorted and zipf\n\
         point probes >= 2x over the cold walk (descents resolve at or near the\n\
         cached leaf), uniform no worse than 0.9x (the top-down fence check\n\
         bounds the miss overhead to one hot node probe)."
    );
}
