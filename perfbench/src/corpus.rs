//! Inputs of every workload, generated from the seed: the paper's
//! Table 1 corpus, an oracle built by scanning the parsed documents,
//! and the probe and transaction streams drawn from that oracle.

use std::collections::HashMap;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use xvi_datagen::probes::Zipf;
use xvi_datagen::{reallife, xmark, Dataset};
use xvi_index::{Lookup, Transaction};
use xvi_xml::{Document, NodeId, NodeKind};

/// Longest string value the equality oracle keeps. Selective probe
/// values are short, so long element values never need one.
const MAX_EQ_VALUE: usize = 64;
/// Most matches an equality probe value may have to count as selective.
const MAX_EQ_MATCHES: usize = 16;
/// Most matches a narrow range probe may have.
const MAX_RANGE_MATCHES: usize = 64;

/// One generated document of the corpus.
pub struct CorpusDoc {
    pub id: String,
    pub xml: String,
    pub xmark: bool,
}

/// Generates the eight `Dataset::paper_suite()` shapes at
/// `scale_permille`, each from a seed derived from `seed`.
pub fn generate(seed: u64, scale_permille: u32) -> Vec<CorpusDoc> {
    Dataset::paper_suite()
        .into_iter()
        .enumerate()
        .map(|(i, ds)| {
            let s = seed
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .wrapping_add(i as u64 + 1);
            let xml = match ds {
                Dataset::XMark(sf) => xmark::generate(sf * scale_permille, s),
                Dataset::EpaGeo => reallife::epageo(scale_permille, s),
                Dataset::Dblp => reallife::dblp(scale_permille, s),
                Dataset::Psd => reallife::psd(scale_permille, s),
                Dataset::Wiki => reallife::wiki(scale_permille, s),
            };
            CorpusDoc {
                id: ds.name(),
                xml,
                xmark: matches!(ds, Dataset::XMark(_)),
            }
        })
        .collect()
}

pub fn xml_bytes(corpus: &[CorpusDoc]) -> usize {
    corpus.iter().map(|d| d.xml.len()).sum()
}

/// `xs:double` lexical check and cast, written from the XML Schema
/// grammar (`ws* sign? (digits ('.' digits*)? | '.' digits) ([eE] sign? digits)? ws*`)
/// independently of the program's own automaton.
pub fn parse_double(s: &str) -> Option<f64> {
    let t = s.trim_matches(|c| matches!(c, ' ' | '\t' | '\r' | '\n'));
    let b = t.as_bytes();
    let mut i = 0;
    if i < b.len() && (b[i] == b'+' || b[i] == b'-') {
        i += 1;
    }
    let int_start = i;
    while i < b.len() && b[i].is_ascii_digit() {
        i += 1;
    }
    let int_digits = i - int_start;
    let mut frac_digits = 0;
    if i < b.len() && b[i] == b'.' {
        i += 1;
        let f = i;
        while i < b.len() && b[i].is_ascii_digit() {
            i += 1;
        }
        frac_digits = i - f;
    }
    if int_digits == 0 && frac_digits == 0 {
        return None;
    }
    if i < b.len() && (b[i] == b'e' || b[i] == b'E') {
        i += 1;
        if i < b.len() && (b[i] == b'+' || b[i] == b'-') {
            i += 1;
        }
        let e = i;
        while i < b.len() && b[i].is_ascii_digit() {
            i += 1;
        }
        if i == e {
            return None;
        }
    }
    if i != b.len() {
        return None;
    }
    t.parse().ok()
}

/// What a scan of one parsed document says every probe must return.
pub struct DocOracle {
    /// Short string values (equality lookups) → matching nodes.
    pub eq: HashMap<String, Vec<NodeId>>,
    /// Every node whose string value is an `xs:double`, sorted by value.
    pub doubles: Vec<(f64, NodeId)>,
    /// `person` elements by the values of their descendant `age`s.
    pub persons_by_age: HashMap<i64, Vec<NodeId>>,
    /// Text nodes in document order (update targets are drawn from these).
    pub texts: Vec<NodeId>,
    /// Parent of every arena slot (`None` for the document node).
    parents: Vec<Option<NodeId>>,
    /// Text nodes whose parent is an `age` element.
    age_text: Vec<bool>,
}

impl DocOracle {
    pub fn build(doc: &Document) -> DocOracle {
        let n = doc.arena_size();
        let ids = || (0..n).map(NodeId::from_index).filter(|&m| doc.is_live(m));
        // Element and document string values are concatenated
        // descendant text: sum the lengths bottom-up (children sit
        // after their parent in arena order) and materialise only
        // short ones.
        let mut len = vec![0usize; n];
        let mut parents = vec![None; n];
        for m in ids() {
            parents[m.index()] = doc.parent(m);
        }
        for m in ids().collect::<Vec<_>>().into_iter().rev() {
            let own = match doc.kind(m) {
                NodeKind::Text(t) => t.len(),
                NodeKind::Element(_) | NodeKind::Document => len[m.index()],
                _ => continue,
            };
            len[m.index()] = own;
            if let Some(p) = parents[m.index()] {
                len[p.index()] += own;
            }
        }
        let mut eq: HashMap<String, Vec<NodeId>> = HashMap::new();
        let mut doubles = Vec::new();
        let mut persons_by_age: HashMap<i64, Vec<NodeId>> = HashMap::new();
        let mut texts = Vec::new();
        let mut age_text = vec![false; n];
        for m in ids() {
            let value = match doc.kind(m) {
                NodeKind::Text(t) => {
                    texts.push(m);
                    if parents[m.index()].and_then(|p| doc.name(p)) == Some("age") {
                        age_text[m.index()] = true;
                    }
                    Some(t.clone())
                }
                NodeKind::Attribute { value, .. } => Some(value.clone()),
                NodeKind::Element(_) | NodeKind::Document if len[m.index()] <= MAX_EQ_VALUE => {
                    Some(doc.string_value(m))
                }
                _ => None,
            };
            if doc.name(m) == Some("person") && matches!(doc.kind(m), NodeKind::Element(_)) {
                let mut ages: Vec<i64> = doc
                    .descendants(m)
                    .filter(|&d| doc.name(d) == Some("age"))
                    .filter_map(|d| parse_double(&doc.string_value(d)))
                    .filter(|v| v.fract() == 0.0)
                    .map(|v| v as i64)
                    .collect();
                ages.sort_unstable();
                ages.dedup();
                for a in ages {
                    persons_by_age.entry(a).or_default().push(m);
                }
            }
            let Some(value) = value else { continue };
            if let Some(v) = parse_double(&value) {
                doubles.push((v, m));
            }
            if value.len() <= MAX_EQ_VALUE {
                eq.entry(value).or_default().push(m);
            }
        }
        doubles.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        DocOracle {
            eq,
            doubles,
            persons_by_age,
            texts,
            parents,
            age_text,
        }
    }

    /// Nodes whose value lies in `[lo, hi]`.
    pub fn range(&self, lo: f64, hi: f64) -> Vec<NodeId> {
        let a = self.doubles.partition_point(|e| e.0 < lo);
        let b = self.doubles.partition_point(|e| e.0 <= hi);
        self.doubles[a..b].iter().map(|e| e.1).collect()
    }
}

/// The probe classes of the read mixes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Class {
    Eq,
    Range,
    XPath,
}

impl Class {
    pub fn name(self) -> &'static str {
        match self {
            Class::Eq => "eq",
            Class::Range => "range",
            Class::XPath => "xpath",
        }
    }
}

/// One read with its expected answer (sorted node ids).
pub struct Probe {
    pub doc: usize,
    pub class: Class,
    pub lookup: Lookup,
    pub expected: Vec<NodeId>,
}

impl Probe {
    /// Whether `got` is exactly the expected answer.
    pub fn check(&self, mut got: Vec<NodeId>) -> bool {
        got.sort_unstable();
        got == self.expected
    }
}

/// Whether a probe value could be produced by the writers' values
/// (see [`write_value`]); such values are never probed.
fn writer_like(v: &str) -> bool {
    v.contains('~') || v.contains("-9")
}

/// Builds `count` reads over `docs` with shares `eq`:`range`:`xpath`
/// (percent). Equality values are selective (1 to 16 matches) and
/// zipf-skewed over a seeded ranking, so a hot set recurs; range keys
/// are uniform over the distinct doubles; XPath probes ask
/// `//person[.//age = N]` of an XMark document.
pub fn probes(
    oracles: &[DocOracle],
    xmark: &[bool],
    count: usize,
    mix: (u32, u32, u32),
    seed: u64,
) -> Vec<Probe> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed_0f9e_0be5);
    // The ranking deals the documents' shuffled values out in turn, so
    // every seed's hot set spreads over the documents alike and the
    // equality cost does not hinge on which document a seed favours.
    let per_doc: Vec<Vec<&str>> = oracles
        .iter()
        .map(|o| {
            let mut vals: Vec<&str> =
                o.eq.iter()
                    .filter(|(v, hits)| {
                        hits.len() <= MAX_EQ_MATCHES && !v.trim().is_empty() && !writer_like(v)
                    })
                    .map(|(v, _)| v.as_str())
                    .collect();
            vals.sort_unstable();
            vals.shuffle(&mut rng);
            vals
        })
        .collect();
    let mut selective: Vec<(usize, &str)> = Vec::new();
    for rank in 0..per_doc.iter().map(Vec::len).max().unwrap_or(0) {
        for (d, vals) in per_doc.iter().enumerate() {
            if let Some(v) = vals.get(rank) {
                selective.push((d, v));
            }
        }
    }
    let zipf = Zipf::new(selective.len(), 0.99);
    let distinct: Vec<Vec<f64>> = oracles
        .iter()
        .map(|o| {
            let mut v: Vec<f64> = o
                .doubles
                .iter()
                .map(|e| e.0)
                .filter(|&x| x > -1e6)
                .collect();
            v.dedup();
            v
        })
        .collect();
    let xmark_docs: Vec<usize> = (0..oracles.len()).filter(|&d| xmark[d]).collect();
    let (pe, pr, _) = mix;
    let mut out = Vec::with_capacity(count);
    while out.len() < count {
        let roll = rng.gen_range(0..100u32);
        if roll < pe {
            let (d, v) = selective[zipf.sample(&mut rng)];
            let mut expected = oracles[d].eq[v].clone();
            expected.sort_unstable();
            out.push(Probe {
                doc: d,
                class: Class::Eq,
                lookup: Lookup::equi(v),
                expected,
            });
        } else if roll < pe + pr {
            let d = rng.gen_range(0..oracles.len());
            let keys = &distinct[d];
            if keys.is_empty() {
                continue;
            }
            let i = rng.gen_range(0..keys.len());
            let j = (i + rng.gen_range(0..4usize)).min(keys.len() - 1);
            let (lo, hi) = (keys[i], keys[j]);
            let mut expected = oracles[d].range(lo, hi);
            if expected.len() > MAX_RANGE_MATCHES {
                continue;
            }
            expected.sort_unstable();
            out.push(Probe {
                doc: d,
                class: Class::Range,
                lookup: Lookup::range_f64(lo..=hi),
                expected,
            });
        } else {
            let Some(&d) = xmark_docs.choose(&mut rng) else {
                continue;
            };
            let age = rng.gen_range(18..80i64);
            let mut expected = oracles[d]
                .persons_by_age
                .get(&age)
                .cloned()
                .unwrap_or_default();
            expected.sort_unstable();
            out.push(Probe {
                doc: d,
                class: Class::XPath,
                lookup: Lookup::xpath(&format!("//person[.//age = {age}]"))
                    .expect("the XPath probe parses"),
                expected,
            });
        }
    }
    out
}

/// Text nodes a writer may change without altering any probe's
/// answer: no ancestor-or-self is an answer node, and no `age` text.
pub fn writable(oracles: &[DocOracle], probes: &[Probe]) -> Vec<Vec<NodeId>> {
    let mut protected: Vec<Vec<bool>> = oracles
        .iter()
        .map(|o| vec![false; o.parents.len()])
        .collect();
    for p in probes {
        for n in &p.expected {
            protected[p.doc][n.index()] = true;
        }
    }
    oracles
        .iter()
        .zip(&protected)
        .map(|(o, prot)| {
            o.texts
                .iter()
                .copied()
                .filter(|t| {
                    if o.age_text[t.index()] {
                        return false;
                    }
                    let mut cur = Some(*t);
                    while let Some(c) = cur {
                        if prot[c.index()] {
                            return false;
                        }
                        cur = o.parents[c.index()];
                    }
                    true
                })
                .collect()
        })
        .collect()
}

/// The node set of one Fig-10 style transaction; values are assigned
/// when it is submitted (see [`write_value`]).
pub struct TxnShape {
    pub doc: usize,
    pub nodes: Vec<NodeId>,
}

/// `count` transactions of 1, 10 and 100 text-node writes (in turn),
/// each on a random document, over distinct writable nodes.
pub fn txn_shapes(
    writable: &[Vec<NodeId>],
    sizes: &[usize],
    count: usize,
    seed: u64,
) -> Vec<TxnShape> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x07a1_15e7);
    let docs: Vec<usize> = (0..writable.len())
        .filter(|&d| writable[d].len() >= 100)
        .collect();
    (0..count)
        .map(|i| {
            let doc = *docs
                .choose(&mut rng)
                .expect("some document has writable text");
            let size = sizes[i % sizes.len()];
            let pool = &writable[doc];
            let mut nodes: Vec<NodeId> = Vec::with_capacity(size);
            while nodes.len() < size {
                let n = pool[rng.gen_range(0..pool.len())];
                if !nodes.contains(&n) {
                    nodes.push(n);
                }
            }
            TxnShape { doc, nodes }
        })
        .collect()
}

/// The value the `j`th write of commit `seq` stores: alternately a
/// number far below every probed range and a word with a marker no
/// probe value contains, so writes never change a probe's answer.
pub fn write_value(seq: u64, j: usize) -> String {
    if (seq as usize + j).is_multiple_of(2) {
        format!("-9{:07}", (seq * 131 + j as u64) % 10_000_000)
    } else {
        format!("w~{seq}~{j}")
    }
}

/// Builds commit `seq`'s transaction from `shape`, returning it with
/// its writes.
pub fn make_txn(shape: &TxnShape, seq: u64) -> (Transaction, Vec<(NodeId, String)>) {
    let mut txn = Transaction::default();
    let writes: Vec<(NodeId, String)> = shape
        .nodes
        .iter()
        .enumerate()
        .map(|(j, &n)| (n, write_value(seq, j)))
        .collect();
    for (n, v) in &writes {
        txn.set_value(*n, v.clone());
    }
    (txn, writes)
}

/// Parses every corpus document, panicking on malformed generator output.
pub fn parse_all(corpus: &[CorpusDoc]) -> Vec<Document> {
    corpus
        .iter()
        .map(|d| Document::parse(&d.xml).expect("generated XML parses"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn double_grammar() {
        for ok in ["42", " 4.5 ", "-.5", "+1e3", "7.", "1E-2"] {
            assert!(parse_double(ok).is_some(), "{ok}");
        }
        for bad in ["", ".", "e5", "1e", "4 2", "inf", "NaN", "1.2.3", "-"] {
            assert!(parse_double(bad).is_none(), "{bad}");
        }
    }

    #[test]
    fn writer_values_are_never_probed() {
        for seq in 0..50 {
            for j in 0..3 {
                let v = write_value(seq, j);
                assert!(writer_like(&v), "{v}");
                if let Some(x) = parse_double(&v) {
                    assert!(x < -1e6);
                }
            }
        }
    }
}
