//! `xvi-cli` — load an XML document (from a file or a built-in
//! synthetic dataset), build the self-tuned value indices, and explore
//! them interactively.
//!
//! ```sh
//! cargo run --release --bin xvi-cli -- path/to/doc.xml
//! cargo run --release --bin xvi-cli -- --dataset xmark1 --scale 100
//! cargo run --release --bin xvi-cli -- query --dataset xmark1 --explain '//person[.//age = 42]'
//! cargo run --release --bin xvi-cli -- stats --dataset xmark1 --scale 100
//! cargo run --release --bin xvi-cli -- serve --ops 2000 --metrics-out /tmp/xvi-metrics.prom
//! cargo run --release --bin xvi-cli -- serve --docs 4 --export 'format=csv; columns=doc,node,value; lookup=equi:42'
//! cargo run --release --bin xvi-cli -- serve --wal /tmp/xvi-wal --trace-rate 0.1
//! cargo run --release --bin xvi-cli -- recover /tmp/xvi-wal --checkpoint
//! ```
//!
//! Then type `help` at the prompt (interactive mode), let the `query`
//! subcommand evaluate one mini-XPath query (with `--explain` showing
//! the cost-based plan and estimated vs. actual cardinalities per
//! candidate predicate), or let the `stats` subcommand dump each
//! index's B+tree `TreeStats` (entries, depth, pages/shared_pages/free_slots)
//! and the substring q-gram table of a loaded document.
//!
//! The `serve` subcommand is the one workload driver: it hosts
//! generated documents in the sharded index service behind the
//! `xvi-serve` frontend (admission control, per-tenant DRR fairness),
//! drives a mixed workload of range, equality, substring and XPath
//! queries with 10% one-write commits, reports the server counters and
//! latency percentiles, and checks the commit count and every
//! maintained index against a fresh rebuild. `--wal <dir>` runs it
//! durably (group-fsynced per-shard write-ahead log, no checkpoint at
//! the end); `--export` streams a config-driven CSV/JSON/JSONL export
//! of a pinned service snapshot to stdout or `--out <file>`. The
//! `recover` subcommand reopens a WAL directory — checkpoint plus WAL
//! replay — and reports what survived; `--checkpoint` then folds the
//! replayed log into a fresh checkpoint.
//!
//! Observability: `serve --metrics-out <path>` dumps the unified
//! metrics registry — every layer's counters, gauges and latency
//! histograms — as Prometheus text to `<path>` and JSON to
//! `<path>.json`; `--trace-rate <0..1>` samples requests into the
//! flight recorder and prints the slowest breakdowns on stderr. The
//! interactive REPL has `metrics` (registry snapshot, including
//! per-tree storage gauges) and `trace` (flight recorder) commands —
//! every REPL query runs fully traced.

use std::io::{BufRead, Write as _};
use std::sync::Arc;
use std::time::Instant;

use xvi::datagen::Dataset;
use xvi::index::QueryEngine;
use xvi::obs::{Obs, RegistrySnapshot, Stage, Unit};
use xvi::prelude::*;
use xvi::xml::NodeKind;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("serve") {
        match run_serve_cmd(&args[1..]) {
            Ok(()) => return,
            Err(msg) => {
                eprintln!("{msg}");
                eprintln!(
                    "usage: xvi-cli serve [--docs <n>] [--scale <permille>] [--shards <n>] \
                     [--ops <n>] [--wal <dir>] [--trace-rate <0..1>] [--export '<spec>'] \
                     [--out <file>] [--metrics-out <path>]\n\
                     export spec: format=csv|json|jsonl; columns=doc,node,name,kind,value,double,version; \
                     lookup=equi:V|range:LO..HI|contains:V|wildcard:P|xpath:Q; header=true|false"
                );
                std::process::exit(2);
            }
        }
    }
    if args.first().map(String::as_str) == Some("recover") {
        match run_recover(&args[1..]) {
            Ok(()) => return,
            Err(msg) => {
                eprintln!("{msg}");
                eprintln!("usage: xvi-cli recover <dir> [--checkpoint]");
                std::process::exit(2);
            }
        }
    }
    if args.first().map(String::as_str) == Some("query") {
        match run_query_cmd(&args[1..]) {
            Ok(()) => return,
            Err(msg) => {
                eprintln!("{msg}");
                eprintln!(
                    "usage: xvi-cli query [--explain] [--dataset <name> | <file.xml>] \
                     [--scale <permille>] '<mini-xpath>'"
                );
                std::process::exit(2);
            }
        }
    }
    if args.first().map(String::as_str) == Some("stats") {
        match run_stats_cmd(&args[1..]) {
            Ok(()) => return,
            Err(msg) => {
                eprintln!("{msg}");
                eprintln!(
                    "usage: xvi-cli stats [--dataset <name> | <file.xml>] [--scale <permille>]"
                );
                std::process::exit(2);
            }
        }
    }
    let (label, xml) = match parse_args(&args) {
        Ok(src) => src,
        Err(msg) => {
            eprintln!("{msg}");
            eprintln!(
                "usage: xvi-cli <file.xml> | --dataset <xmark1|xmark2|xmark4|xmark8|epageo|dblp|psd|wiki> [--scale <permille>]"
            );
            std::process::exit(2);
        }
    };

    let t = Instant::now();
    let mut doc = match Document::parse(&xml) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("failed to parse {label}: {e}");
            std::process::exit(1);
        }
    };
    let parse_ms = t.elapsed().as_secs_f64() * 1000.0;

    let t = Instant::now();
    let mut idx = IndexManager::build(
        &doc,
        IndexConfig::with_types(&[XmlType::Double, XmlType::DateTime]).with_substring_index(),
    );
    let index_ms = t.elapsed().as_secs_f64() * 1000.0;

    let stats = doc.stats();
    println!(
        "loaded {label}: {} nodes ({} text, {} attrs) — shred {parse_ms:.0} ms, index {index_ms:.0} ms",
        stats.total_nodes, stats.text_nodes, stats.attribute_nodes
    );
    println!("type `help` for commands");

    // Every interactive request is traced (rate 1.0): `trace` shows the
    // flight recorder's stage breakdowns, `metrics` the registry.
    let obs = Obs::new();
    obs.tracer.set_sample_rate(1.0);

    let stdin = std::io::stdin();
    let mut line = String::new();
    loop {
        print!("xvi> ");
        std::io::stdout().flush().ok();
        line.clear();
        if stdin.lock().read_line(&mut line).unwrap_or(0) == 0 {
            break;
        }
        let input = line.trim();
        let (cmd, rest) = input.split_once(' ').unwrap_or((input, ""));
        let rest = rest.trim();
        match cmd {
            "" => {}
            "quit" | "exit" | "q" => break,
            "help" => help(),
            "stats" => {
                print_stats(&doc, &idx);
                print_index_trees(&idx);
            }
            "metrics" => repl_metrics(&idx, &obs),
            "trace" => {
                if rest == "clear" {
                    obs.tracer.recorder().clear();
                    println!("flight recorder cleared");
                } else {
                    print!("{}", obs.tracer.recorder().render());
                }
            }
            "query" | "scan" => run_query(&doc, &idx, cmd == "query", rest, &obs),
            "explain" => explain_query(&doc, &idx, rest),
            "eq" => timed_nodes("equi", &doc, &obs, rest, || {
                idx.query(&doc, &Lookup::equi(rest)).unwrap()
            }),
            "contains" => timed_nodes("contains", &doc, &obs, rest, || {
                idx.query(&doc, &Lookup::contains(rest)).unwrap()
            }),
            "like" => timed_nodes("wildcard", &doc, &obs, rest, || {
                idx.query(&doc, &Lookup::wildcard(rest)).unwrap()
            }),
            "range" => match parse_range(rest) {
                Some((lo, hi)) => timed_nodes("range", &doc, &obs, rest, || {
                    idx.query(&doc, &Lookup::range_f64(lo..=hi)).unwrap()
                }),
                None => println!("usage: range <lo> <hi>"),
            },
            "set" => match rest.split_once(' ') {
                Some((id, value)) => match id.parse::<usize>() {
                    Ok(i) => {
                        let node = NodeId::from_index(i);
                        let t = Instant::now();
                        match idx.update_value(&mut doc, node, value) {
                            Ok(()) => {
                                obs.registry
                                    .histogram(
                                        "xvi_repl_update_seconds",
                                        "Latency of REPL value updates",
                                        &[],
                                        Unit::Seconds,
                                    )
                                    .record(t.elapsed());
                                println!(
                                    "updated node {i} in {:.2} ms",
                                    t.elapsed().as_secs_f64() * 1000.0
                                );
                            }
                            Err(e) => println!("error: {e}"),
                        }
                    }
                    Err(_) => println!("usage: set <node-id> <new value>"),
                },
                None => println!("usage: set <node-id> <new value>"),
            },
            "show" => match rest.parse::<usize>() {
                Ok(i) => show_node(&doc, NodeId::from_index(i)),
                Err(_) => println!("usage: show <node-id>"),
            },
            other => println!("unknown command `{other}` — try `help`"),
        }
    }
}

/// `query`: one-shot evaluation of a mini-XPath query over a file or
/// synthetic dataset, with `--explain` rendering the chosen plan.
fn run_query_cmd(args: &[String]) -> Result<(), String> {
    let mut explain = false;
    let mut source_args: Vec<String> = Vec::new();
    let mut query_str: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--explain" => {
                explain = true;
                i += 1;
            }
            "--dataset" | "--scale" => {
                source_args.push(args[i].clone());
                source_args.push(
                    args.get(i + 1)
                        .ok_or_else(|| format!("{} needs a value", args[i]))?
                        .clone(),
                );
                i += 2;
            }
            other
                if query_str.is_none() && (other.starts_with('/') && !other.ends_with(".xml")) =>
            {
                query_str = Some(other.to_string());
                i += 1;
            }
            other if other.ends_with(".xml") => {
                source_args.push(other.to_string());
                i += 1;
            }
            other => {
                if query_str.is_none() {
                    query_str = Some(other.to_string());
                } else {
                    return Err(format!("unexpected argument `{other}`"));
                }
                i += 1;
            }
        }
    }
    let q = query_str.ok_or("no query given")?;
    let (label, xml) = if source_args.is_empty() {
        parse_args(&["--dataset".to_string(), "xmark1".to_string()])?
    } else {
        parse_args(&source_args)?
    };
    let doc = Document::parse(&xml).map_err(|e| format!("failed to parse {label}: {e}"))?;
    let idx = IndexManager::build(
        &doc,
        IndexConfig::with_types(&[XmlType::Double, XmlType::DateTime]).with_substring_index(),
    );
    let query = QueryEngine::parse(&q).map_err(|e| e.to_string())?;
    println!("source: {label}");
    if explain {
        println!("{}", QueryEngine::explain(&doc, &idx, &query));
    }
    let t = Instant::now();
    let result = QueryEngine::evaluate(&doc, &idx, &query);
    let ms = t.elapsed().as_secs_f64() * 1000.0;
    preview(&doc, &result);
    println!("{} node(s) in {ms:.2} ms", result.len());
    Ok(())
}

fn explain_query(doc: &Document, idx: &IndexManager, q: &str) {
    match QueryEngine::parse(q) {
        Ok(query) => println!("{}", QueryEngine::explain(doc, idx, &query)),
        Err(e) => println!("error: {e}"),
    }
}

/// `stats`: build all indices over a document and dump each B+tree's
/// `TreeStats` plus the substring q-gram table, then the
/// consolidated metrics-registry snapshot (service counters plus the
/// per-tree storage collector) in Prometheus text form.
fn run_stats_cmd(args: &[String]) -> Result<(), String> {
    let (label, xml) = if args.is_empty() {
        parse_args(&["--dataset".to_string(), "xmark1".to_string()])?
    } else {
        parse_args(args)?
    };
    let doc = Document::parse(&xml).map_err(|e| format!("failed to parse {label}: {e}"))?;
    // Host the document in a service so the registry's shard collector
    // and query-path counters cover it — one index build, via insert.
    let service = IndexService::new(ServiceConfig::with_shards(1).with_index(
        IndexConfig::with_types(&[XmlType::Double, XmlType::DateTime]).with_substring_index(),
    ));
    service.insert_document("doc", doc);
    println!("source: {label}");
    service
        .read("doc", |doc, idx| {
            print_stats(doc, idx);
            print_index_trees(idx);
        })
        .expect("document just inserted");
    // A few representative probes so the query-path series are live.
    for lookup in [
        Lookup::equi("42"),
        Lookup::range_f64(10.0..=20.0),
        Lookup::contains("a"),
    ] {
        let _ = service.query("doc", &lookup);
    }
    println!("\nmetrics registry snapshot:");
    print!("{}", service.obs().registry.snapshot().to_prometheus());
    Ok(())
}

fn tree_line(label: &str, t: xvi::btree::TreeStats) {
    println!(
        "  {label}: {} entries, depth {}, {} leaves / {} internals, \
         {} pages ({} shared, {} free slots)",
        t.len, t.depth, t.leaves, t.internals, t.pages, t.shared_pages, t.free_slots
    );
}

/// Dumps every configured index's B+tree shape (`TreeStats`: entry
/// count, depth, pages) and the substring index's q-gram
/// table — the only statistics an estimate reads beside the trees.
fn print_index_trees(idx: &IndexManager) {
    if let Some(s) = idx.string_index() {
        println!("string index trees:");
        tree_line("hash tree", s.tree_stats());
    }
    for &ty in &idx.config().typed {
        if let Some(t) = idx.typed_index(ty) {
            println!("{} index trees:", ty.name());
            tree_line("value tree", t.value_tree_stats());
            tree_line("node tree", t.node_tree_stats());
        }
    }
    if let Some(s) = idx.substring_index() {
        let g = s.statistics();
        println!(
            "substring q-gram table: {} distinct trigram(s), {} posting(s) over {} node(s)",
            g.distinct_grams(),
            g.total_postings(),
            s.indexed_nodes()
        );
        tree_line("posting tree", s.tree_stats());
    }
}

/// Dumps a registry snapshot to `path` (Prometheus text exposition)
/// and `<path>.json` (the JSON document) — the `--metrics-out` tail of
/// the `serve` subcommand.
fn write_metrics(snap: &RegistrySnapshot, path: &str) -> Result<(), String> {
    std::fs::write(path, snap.to_prometheus()).map_err(|e| format!("--metrics-out {path}: {e}"))?;
    let json_path = format!("{path}.json");
    std::fs::write(&json_path, snap.to_json())
        .map_err(|e| format!("--metrics-out {json_path}: {e}"))?;
    eprintln!(
        "wrote metrics snapshot ({} series) to {path} and {json_path}",
        snap.series_names().len()
    );
    Ok(())
}

/// `recover`: reopen a WAL-backed service directory — load the last
/// checkpoint (if any) and replay each shard's log, tolerating a torn
/// final record — then report what survived. With `--checkpoint`, fold
/// the replayed tail into a fresh checkpoint and truncate the logs.
fn run_recover(args: &[String]) -> Result<(), String> {
    let mut dir: Option<String> = None;
    let mut checkpoint = false;
    for arg in args {
        match arg.as_str() {
            "--checkpoint" => checkpoint = true,
            other if dir.is_none() && !other.starts_with("--") => dir = Some(other.to_string()),
            other => return Err(format!("unexpected argument `{other}`")),
        }
    }
    let dir = dir.ok_or("no directory given")?;
    let t = Instant::now();
    let service = IndexService::open(ServiceConfig::default().with_wal(&dir))
        .map_err(|e| format!("{dir}: {e}"))?;
    let ms = t.elapsed().as_secs_f64() * 1000.0;
    println!(
        "recovered {} document(s) from {dir} in {ms:.0} ms \
         ({} committed write(s) on record)",
        service.doc_count(),
        service.commit_count()
    );
    for id in service.doc_ids() {
        let version = service.version_of(&id).expect("listed ids are present");
        let nodes = service
            .read(&id, |doc, idx| {
                idx.verify_against(doc)
                    .map_err(|e| format!("{id}: recovered index diverges: {e}"))?;
                Ok::<usize, String>(doc.stats().total_nodes)
            })
            .expect("listed ids are present")?;
        println!("  {id}: version {version}, {nodes} nodes, indices verified");
    }
    if checkpoint {
        let t = Instant::now();
        service.checkpoint().map_err(|e| format!("{dir}: {e}"))?;
        println!(
            "checkpointed and truncated the logs in {:.0} ms",
            t.elapsed().as_secs_f64() * 1000.0
        );
    }
    Ok(())
}

/// `serve`: host `--docs` generated documents in an [`IndexService`]
/// (durably with `--wal <dir>`) behind the `xvi-serve` frontend, drive
/// a mixed workload from two tenants — range, equality, `contains` and
/// XPath queries plus 10% one-write commits — then check the run: every
/// request completed, every commit counted, every maintained index
/// equal to a fresh rebuild. A refused request is resubmitted until it
/// is admitted. `--export` streams a pinned snapshot afterwards.
fn run_serve_cmd(args: &[String]) -> Result<(), String> {
    let mut docs_n = 4usize;
    let mut scale = 10u32;
    let mut shards = 4usize;
    let mut ops = 2_000usize;
    let mut wal: Option<String> = None;
    let mut trace_rate = 0.0f64;
    let mut export: Option<String> = None;
    let mut out: Option<String> = None;
    let mut metrics_out: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        let val = |j: usize| -> Result<&String, String> {
            args.get(j)
                .ok_or_else(|| format!("{} needs a value", args[j - 1]))
        };
        match args[i].as_str() {
            "--docs" => docs_n = val(i + 1)?.parse().map_err(|e| format!("--docs: {e}"))?,
            "--scale" => scale = val(i + 1)?.parse().map_err(|e| format!("--scale: {e}"))?,
            "--shards" => shards = val(i + 1)?.parse().map_err(|e| format!("--shards: {e}"))?,
            "--ops" => ops = val(i + 1)?.parse().map_err(|e| format!("--ops: {e}"))?,
            "--wal" => wal = Some(val(i + 1)?.clone()),
            "--trace-rate" => {
                trace_rate = val(i + 1)?
                    .parse()
                    .map_err(|e| format!("--trace-rate: {e}"))?;
            }
            "--export" => export = Some(val(i + 1)?.clone()),
            "--out" => out = Some(val(i + 1)?.clone()),
            "--metrics-out" => metrics_out = Some(val(i + 1)?.clone()),
            other => return Err(format!("unknown serve option `{other}`")),
        }
        i += 2;
    }
    if docs_n == 0 {
        return Err("--docs must be positive".into());
    }
    // Parse the export spec before doing any work, so a typo fails
    // fast instead of after the serving phase.
    let export = export
        .map(|s| ExportSpec::parse(&s).map_err(|e| e.to_string()))
        .transpose()?;

    let config = ServiceConfig::with_shards(shards)
        .with_index(IndexConfig::default().with_substring_index());
    let service = Arc::new(match &wal {
        // No checkpoint at the end: `recover <dir>` replays a real log.
        Some(dir) => {
            IndexService::open(config.with_wal(dir)).map_err(|e| format!("--wal {dir}: {e}"))?
        }
        None => IndexService::new(config),
    });
    service.obs().tracer.set_sample_rate(trace_rate);
    let suite = Dataset::paper_suite();
    eprintln!("generating and indexing {docs_n} documents at {scale}‰ …");
    let mut value_nodes = Vec::new();
    for i in 0..docs_n {
        let xml = suite[i % suite.len()].generate(scale);
        let doc = Document::parse(&xml).expect("generated datasets parse");
        value_nodes.push(
            doc.descendants_or_self(doc.document_node())
                .find(|&n| doc.kind(n).has_direct_value())
                .expect("generated documents contain text"),
        );
        service.insert_document(format!("d{i}"), doc);
    }
    let base_commits = service.commit_count();

    let server = Server::new(Arc::clone(&service), ServerConfig::default());
    eprintln!("serving a {ops}-request mixed workload (2 tenants, mixed lookups, 10% writes) …");
    let xpath = Lookup::xpath("//person[.//age = 42]").expect("query parses");
    let mut tickets = Vec::new();
    for i in 0..ops {
        let request = || {
            let lookup = match i % 10 {
                9 => {
                    // The commit's own count picks its document, so
                    // every document is written whatever `--docs` is.
                    let target = (i / 10) % docs_n;
                    let mut txn = service.begin();
                    txn.set_value(value_nodes[target], format!("v{i}"));
                    return Request::Commit {
                        doc: format!("d{target}"),
                        txn,
                    };
                }
                3 => xpath.clone(),
                6 => Lookup::equi("42"),
                7 => Lookup::contains("ap"),
                _ => Lookup::range_f64(10.0..=20.0),
            };
            Request::Query {
                doc: format!("d{}", i % docs_n),
                lookup,
            }
        };
        let tenant = if i % 2 == 0 { "even" } else { "odd" };
        // A refused request is consumed by `submit`: wait out the
        // hint, then submit a fresh copy until one is admitted.
        let ticket = loop {
            match server.submit(tenant, request()) {
                Ok(t) => break t,
                Err(ServeError::Overloaded { retry_after }) => std::thread::sleep(retry_after),
                Err(e) => return Err(format!("serve: {e}")),
            }
        };
        tickets.push(ticket);
    }
    for t in &tickets {
        t.wait().map_err(|e| format!("serve: {e}"))?;
    }
    // A worker counts a completion before it hands over the result,
    // so the counters are complete once every ticket has resolved.
    let stats = server.stats();
    server.shutdown();
    eprintln!(
        "server: admitted={} rejected={} completed={}",
        stats.admitted, stats.rejected, stats.completed
    );
    let latency = &stats.latency;
    eprintln!(
        "latency: p50={:?} p90={:?} p99={:?} p999={:?} max={:?} (n={})",
        latency.percentile(0.50),
        latency.percentile(0.90),
        latency.percentile(0.99),
        latency.percentile(0.999),
        latency.max(),
        latency.count()
    );
    // Every tenth request (`i % 10 == 9`) was a commit.
    let commits = (ops / 10) as u64;
    let counted = service.commit_count() - base_commits;
    if counted != commits {
        return Err(format!(
            "serve: {commits} commits sent but {counted} counted"
        ));
    }
    for i in 0..docs_n {
        service
            .read(&format!("d{i}"), |doc, idx| idx.verify_against(doc))
            .expect("served documents are registered")
            .map_err(|e| format!("d{i}: maintained index diverges: {e}"))?;
    }
    eprintln!("{commits} commits counted; {docs_n} document(s) verified against fresh rebuilds");

    if let Some(spec) = export {
        // Pin one consistent cut across every document, then stream.
        let snapshot = service.snapshot_all();
        let rows = match &out {
            Some(path) => {
                let file = std::fs::File::create(path).map_err(|e| format!("--out {path}: {e}"))?;
                let mut w = std::io::BufWriter::new(file);
                spec.stream(&snapshot, &mut w).map_err(|e| e.to_string())?
            }
            None => {
                let stdout = std::io::stdout();
                let mut w = std::io::BufWriter::new(stdout.lock());
                spec.stream(&snapshot, &mut w).map_err(|e| e.to_string())?
            }
        };
        eprintln!(
            "exported {rows} rows{}",
            out.map(|p| format!(" to {p}")).unwrap_or_default()
        );
    }
    if let Some(path) = &metrics_out {
        write_metrics(&service.obs().registry.snapshot(), path)?;
    }
    if trace_rate > 0.0 {
        eprintln!("--- flight recorder: slowest traced requests ---");
        eprint!("{}", service.obs().tracer.recorder().render());
    }
    Ok(())
}

fn parse_args(args: &[String]) -> Result<(String, String), String> {
    let mut dataset: Option<String> = None;
    let mut scale: u32 = 100;
    let mut file: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--dataset" => {
                dataset = Some(args.get(i + 1).ok_or("--dataset needs a name")?.clone());
                i += 2;
            }
            "--scale" => {
                scale = args
                    .get(i + 1)
                    .and_then(|s| s.parse().ok())
                    .ok_or("--scale needs a number (permille)")?;
                i += 2;
            }
            other => {
                file = Some(other.to_string());
                i += 1;
            }
        }
    }
    if let Some(name) = dataset {
        let ds = match name.to_lowercase().as_str() {
            "xmark1" => Dataset::XMark(1),
            "xmark2" => Dataset::XMark(2),
            "xmark4" => Dataset::XMark(4),
            "xmark8" => Dataset::XMark(8),
            "epageo" => Dataset::EpaGeo,
            "dblp" => Dataset::Dblp,
            "psd" => Dataset::Psd,
            "wiki" => Dataset::Wiki,
            other => return Err(format!("unknown dataset `{other}`")),
        };
        Ok((format!("{} ({scale}‰)", ds.name()), ds.generate(scale)))
    } else if let Some(path) = file {
        let xml = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        Ok((path, xml))
    } else {
        Err("no input given".into())
    }
}

fn help() {
    println!(
        "commands:\n\
         \x20 query <mini-xpath>   evaluate with index acceleration, e.g. query //person[.//age = 42]\n\
         \x20 scan <mini-xpath>    evaluate by full scan (for comparison)\n\
         \x20 explain <mini-xpath> show the cost-based plan (probe/intersect/scan, est vs. actual counts)\n\
         \x20 eq <string>          string equality lookup over all nodes\n\
         \x20 range <lo> <hi>      double range lookup\n\
         \x20 contains <needle>    substring lookup over stored values\n\
         \x20 like <pattern>       wildcard lookup (* and ?)\n\
         \x20 set <node-id> <val>  update a text/attribute value (index maintained)\n\
         \x20 show <node-id>       print one node\n\
         \x20 stats                document, index, TreeStats and q-gram statistics\n\
         \x20 metrics              Prometheus snapshot of the session's metrics registry\n\
         \x20 trace [clear]        flight recorder: slowest traced requests, stage by stage\n\
         \x20 quit"
    );
}

fn parse_range(rest: &str) -> Option<(f64, f64)> {
    let (a, b) = rest.split_once(' ')?;
    Some((a.trim().parse().ok()?, b.trim().parse().ok()?))
}

fn run_query(doc: &Document, idx: &IndexManager, accelerated: bool, q: &str, obs: &Obs) {
    let query = match QueryEngine::parse(q) {
        Ok(q) => q,
        Err(e) => {
            println!("error: {e}");
            return;
        }
    };
    let mode = if accelerated { "index" } else { "scan" };
    let trace = obs
        .tracer
        .start(if accelerated { "query" } else { "scan" }, q.to_string());
    let t = Instant::now();
    let result = if accelerated {
        let t0 = trace.now_ns();
        let plan = QueryEngine::plan(idx, &query);
        trace.record_stage(Stage::Plan, t0);
        trace.annotate(&format!("plan: {plan}"));
        QueryEngine::evaluate_with_plan_probed(doc, idx, &query, &plan, Some(&trace), &mut None)
    } else {
        let t0 = trace.now_ns();
        let result = QueryEngine::evaluate_scan(doc, &query);
        trace.record_stage(Stage::Execute, t0);
        result
    };
    let elapsed = t.elapsed();
    obs.registry
        .histogram(
            "xvi_repl_query_seconds",
            "Latency of REPL mini-XPath evaluations",
            &[("mode", mode)],
            Unit::Seconds,
        )
        .record(elapsed);
    obs.tracer.finish(trace);
    let ms = elapsed.as_secs_f64() * 1000.0;
    preview(doc, &result);
    println!("{} node(s) in {ms:.2} ms ({mode})", result.len());
}

fn timed_nodes(
    label: &str,
    doc: &Document,
    obs: &Obs,
    detail: &str,
    f: impl FnOnce() -> Vec<NodeId>,
) {
    let trace = obs.tracer.start("lookup", format!("{label} {detail}"));
    let t = Instant::now();
    let t0 = trace.now_ns();
    let result = f();
    trace.record_stage(Stage::Probe, t0);
    let elapsed = t.elapsed();
    obs.registry
        .histogram(
            "xvi_repl_lookup_seconds",
            "Latency of REPL point lookups",
            &[("kind", label)],
            Unit::Seconds,
        )
        .record(elapsed);
    obs.tracer.finish(trace);
    let ms = elapsed.as_secs_f64() * 1000.0;
    preview(doc, &result);
    println!("{label}: {} node(s) in {ms:.2} ms", result.len());
}

/// The REPL `metrics` command: refresh point-in-time storage gauges
/// from the live trees, then print the whole registry as a Prometheus
/// text exposition.
fn repl_metrics(idx: &IndexManager, obs: &Obs) {
    for (kind, t) in idx.tree_stats_by_kind() {
        let labels: &[(&str, &str)] = &[("kind", kind.as_str())];
        let g = |name: &str, help: &str, v: u64| {
            obs.registry.gauge(name, help, labels).set(v);
        };
        g("xvi_btree_entries", "Entries stored per tree", t.len as u64);
        g("xvi_btree_pages", "Arena pages per tree", t.pages as u64);
        g(
            "xvi_btree_shared_pages",
            "Copy-on-write shared arena pages per tree",
            t.shared_pages as u64,
        );
        g(
            "xvi_btree_pages_detached_total",
            "Cumulative copy-on-write page detaches per tree",
            t.pages_detached,
        );
    }
    print!("{}", obs.registry.snapshot().to_prometheus());
}

fn preview(doc: &Document, nodes: &[NodeId]) {
    for &n in nodes.iter().take(10) {
        show_node(doc, n);
    }
    if nodes.len() > 10 {
        println!("  … {} more", nodes.len() - 10);
    }
}

fn show_node(doc: &Document, n: NodeId) {
    if !doc.is_live(n) {
        println!("  [{}] <dead node>", n.index());
        return;
    }
    let mut value = doc.string_value(n);
    if value.len() > 60 {
        value.truncate(57);
        value.push('…');
    }
    let desc = match doc.kind(n) {
        NodeKind::Element(_) => format!("<{}>", doc.name(n).unwrap_or("?")),
        NodeKind::Text(_) => "#text".to_string(),
        NodeKind::Attribute { .. } => format!("@{}", doc.name(n).unwrap_or("?")),
        NodeKind::Comment(_) => "#comment".to_string(),
        NodeKind::Pi { .. } => "#pi".to_string(),
        NodeKind::Document => "#document".to_string(),
        NodeKind::Free => "<freed>".to_string(),
    };
    println!("  [{}] {desc} = {value:?}", n.index());
}

fn print_stats(doc: &Document, idx: &IndexManager) {
    let d = doc.stats();
    println!(
        "document: {} nodes ({} elements, {} text, {} attributes, {} other), ~{:.1} MB in memory",
        d.total_nodes,
        d.element_nodes,
        d.text_nodes,
        d.attribute_nodes,
        d.other_nodes,
        d.arena_bytes as f64 / 1048576.0
    );
    let s = idx.stats();
    println!(
        "string index: {} entries, ~{:.1} MB",
        s.string_entries,
        s.string_bytes as f64 / 1048576.0
    );
    for t in &s.typed {
        println!(
            "{} index: {} states / {} values, ~{:.1} MB",
            t.ty.name(),
            t.states,
            t.values,
            t.bytes as f64 / 1048576.0
        );
    }
    if let Some(sub) = idx.substring_index() {
        println!(
            "substring index: {} postings over {} nodes, ~{:.1} MB",
            sub.postings(),
            sub.indexed_nodes(),
            sub.approx_bytes() as f64 / 1048576.0
        );
    }
}
