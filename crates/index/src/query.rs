//! A mini-XPath evaluator exercising the indices.
//!
//! Supports the query shapes the paper motivates (§1):
//!
//! ```text
//! //person[.//age = 42]
//! //person[first/text() = "Arthur"]
//! //*[data(name) = "ArthurDent"]
//! /site/people/person[@id = "person0"]
//! //item[price < 50]
//! //person[.//age = 42][.//education = "Graduate School"]
//! ```
//!
//! Grammar (recursive descent, no external crates):
//!
//! ```text
//! query     := ( '/' | '//' ) step ( ( '/' | '//' ) step )*
//! step      := test predicate*
//! test      := NAME | '*' | 'text()' | '@' NAME
//! predicate := '[' relpath ( op literal )? ']'
//! relpath   := '.' | 'data(' relpath ')' | ( './/' | './' | '' ) step ( ('/'|'//') step )*
//! op        := '=' | '!=' | '<' | '<=' | '>' | '>='
//! literal   := '"' chars '"' | "'" chars "'" | number
//! ```
//!
//! Two evaluators are provided: [`QueryEngine::evaluate_scan`] walks
//! the tree (the baseline), while [`QueryEngine::evaluate`] runs a
//! **cost-based plan**: every comparison predicate on every step is a
//! candidate for lowering into a value [`Lookup`], the candidates are
//! ranked by their cardinality estimates ([`IndexManager::estimate`]:
//! exact counts from the B+tree summaries for equality and range
//! probes, q-gram bounds for substring probes), and the cheapest one (or the
//! intersection of two probes on the same step, or a scan when nothing
//! is selective) drives evaluation — value first, structure second,
//! with the *most selective* value chosen.

use std::collections::HashSet;

use xvi_fsm::XmlType;
use xvi_obs::{Stage, Trace};
use xvi_xml::{Document, NodeId, NodeKind};

use crate::error::IndexError;
use crate::lookup::{Bounds, Lookup};
use crate::manager::IndexManager;
use crate::stats::CardinalityEstimate;

/// Navigation axis of a step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Axis {
    /// `/step`
    Child,
    /// `//step`
    Descendant,
    /// `.` in predicates
    SelfAxis,
}

/// Node test of a step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Test {
    /// An element name test.
    Name(String),
    /// `*`: any element.
    Any,
    /// `text()`: any text node.
    Text,
    /// `@name`: an attribute.
    Attr(String),
}

/// Comparison operators in predicates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

/// A literal on the right-hand side of a comparison.
#[derive(Debug, Clone, PartialEq)]
pub enum Literal {
    /// A quoted string → string-value equality semantics.
    Str(String),
    /// A number → double semantics (XQuery general comparison on
    /// untyped data).
    Num(f64),
}

/// `[ relpath op literal ]` or bare `[ relpath ]` (existence).
#[derive(Debug, Clone, PartialEq)]
pub struct Predicate {
    /// Relative path selecting the compared nodes ('.'-anchored).
    pub path: Vec<Step>,
    /// Comparison; `None` = existence test.
    pub cmp: Option<(CmpOp, Literal)>,
}

/// One location step.
#[derive(Debug, Clone, PartialEq)]
pub struct Step {
    /// How the step navigates from its context.
    pub axis: Axis,
    /// Which nodes it selects.
    pub test: Test,
    /// Value predicates, all of which must hold (`[a][b]`).
    pub preds: Vec<Predicate>,
}

/// A parsed query.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    /// The location steps, anchored at the document node.
    pub steps: Vec<Step>,
}

/// One plannable index probe: a predicate (addressed by step and
/// predicate position) lowered into a value [`Lookup`], with its
/// cardinality estimate.
#[derive(Debug, Clone, PartialEq)]
pub struct Probe {
    /// The lowered value lookup.
    pub lookup: Lookup,
    /// Index of the step carrying the predicate.
    pub step: usize,
    /// Index of the predicate within the step's `preds`.
    pub pred: usize,
    /// Estimated candidate cardinality of the probe.
    pub estimate: CardinalityEstimate,
}

/// How [`QueryEngine::evaluate`] will serve a query, chosen
/// cost-based from the per-index cardinality estimates.
#[derive(Debug, Clone, PartialEq)]
pub enum Plan {
    /// Probe one index with the most selective lowered predicate, then
    /// reverse path matching from the candidates.
    Index(Probe),
    /// Probe two indexes for two predicates of the *same* step,
    /// intersect the anchor candidate sets, then reverse path matching
    /// on the (smaller) intersection.
    Intersect(Probe, Probe),
    /// Full document scan — no predicate is covered, or none is
    /// selective enough to beat the scan.
    Scan,
}

impl Plan {
    /// The primary probe's lookup, if the plan probes an index.
    pub fn lookup(&self) -> Option<&Lookup> {
        match self {
            Plan::Index(p) | Plan::Intersect(p, _) => Some(&p.lookup),
            Plan::Scan => None,
        }
    }
}

impl std::fmt::Display for Plan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Plan::Index(p) => write!(
                f,
                "index probe {} at step {} (est {}), then reverse path match",
                p.lookup,
                p.step + 1,
                p.estimate
            ),
            Plan::Intersect(a, b) => write!(
                f,
                "intersect {} (est {}) with {} (est {}) at step {}, then reverse path match",
                a.lookup,
                a.estimate,
                b.lookup,
                b.estimate,
                a.step + 1
            ),
            Plan::Scan => write!(f, "full document scan"),
        }
    }
}

/// Scan threshold: fall back to [`Plan::Scan`] when even the cheapest
/// probe's estimated candidate count exceeds this fraction of the
/// document's (approximate) node population — verifying that many
/// candidates costs more than one walk over the tree.
const SCAN_FRACTION: f64 = 0.5;

/// Consider intersecting a second probe only when the best probe still
/// expects more candidates than this.
const INTERSECT_MIN: usize = 64;

/// A second probe joins an intersection only if its estimate is within
/// this factor of the best probe's (probing a wildly less selective
/// index costs more than it prunes).
const INTERSECT_FACTOR: f64 = 8.0;

/// One enumerated candidate predicate in an [`Explanation`]: its
/// lowered lookup, its cardinality estimate, and the *actual*
/// candidate count the probe produced — mis-estimates are visible as
/// the gap between the two.
#[derive(Debug, Clone, PartialEq)]
pub struct PredicateReport {
    /// Index of the step carrying the predicate.
    pub step: usize,
    /// Index of the predicate within the step.
    pub pred: usize,
    /// The lowered value lookup.
    pub lookup: Lookup,
    /// Estimated candidate cardinality (what the planner ranked by).
    pub estimate: CardinalityEstimate,
    /// Actual candidate count of executing the probe.
    pub actual: usize,
    /// Whether the plan chose this probe.
    pub chosen: bool,
}

impl std::fmt::Display for PredicateReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "predicate {} at step {}: est {}, actual {}{}",
            self.lookup,
            self.step + 1,
            self.estimate,
            self.actual,
            if self.chosen { " (chosen)" } else { "" }
        )
    }
}

/// The rendered execution plan of one query — what
/// [`QueryEngine::explain`] returns: the chosen plan, every candidate
/// predicate with estimated vs. actual cardinality, how many
/// candidates the chosen probe(s) produced, and the final result
/// count.
#[derive(Debug, Clone, PartialEq)]
pub struct Explanation {
    /// The chosen plan.
    pub plan: Plan,
    /// Every candidate predicate the planner enumerated, with
    /// estimated and actual cardinalities.
    pub predicates: Vec<PredicateReport>,
    /// Candidates the chosen probe(s) returned (`None` when the plan
    /// scans; the sum of both probes for an intersection).
    pub probed: Option<usize>,
    /// Final result count after path matching.
    pub results: usize,
}

impl std::fmt::Display for Explanation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.probed {
            Some(c) => write!(
                f,
                "plan: {} — {} candidate(s), {} result(s)",
                self.plan, c, self.results
            )?,
            None => write!(f, "plan: {} — {} result(s)", self.plan, self.results)?,
        }
        for p in &self.predicates {
            write!(f, "\n  {p}")?;
        }
        Ok(())
    }
}

/// Parser + evaluator.
#[derive(Debug, Default)]
pub struct QueryEngine;

impl QueryEngine {
    /// Parses a query string.
    pub fn parse(input: &str) -> Result<Query, IndexError> {
        Parser {
            chars: input.trim().as_bytes(),
            pos: 0,
        }
        .query()
    }

    /// Lowers one predicate into a value [`Lookup`], when its shape
    /// allows it and a configured index covers it.
    fn lower_predicate(idx: &IndexManager, pred: &Predicate) -> Option<Lookup> {
        if pred.path.iter().any(|s| !s.preds.is_empty()) {
            return None;
        }
        match &pred.cmp {
            Some((CmpOp::Eq, Literal::Str(s))) if idx.string_index().is_some() => {
                Some(Lookup::Equi(s.clone()))
            }
            Some((op, Literal::Num(v))) if idx.typed_index(XmlType::Double).is_some() => {
                use std::ops::Bound::*;
                let (lo, hi) = match op {
                    CmpOp::Eq => (Included(*v), Included(*v)),
                    CmpOp::Lt => (Unbounded, Excluded(*v)),
                    CmpOp::Le => (Unbounded, Included(*v)),
                    CmpOp::Gt => (Excluded(*v), Unbounded),
                    CmpOp::Ge => (Included(*v), Unbounded),
                    CmpOp::Ne => return None,
                };
                Some(Lookup::RangeF64(Bounds { lo, hi }))
            }
            _ => None,
        }
    }

    /// Enumerates every plannable probe of a query: each comparison
    /// predicate on each step that lowers into a covered [`Lookup`],
    /// with its cardinality estimate ([`IndexManager::estimate`]).
    pub fn candidate_probes(idx: &IndexManager, query: &Query) -> Vec<Probe> {
        let mut probes = Vec::new();
        for (si, step) in query.steps.iter().enumerate() {
            for (pi, pred) in step.preds.iter().enumerate() {
                let Some(lookup) = Self::lower_predicate(idx, pred) else {
                    continue;
                };
                let Ok(estimate) = idx.estimate(&lookup) else {
                    continue;
                };
                probes.push(Probe {
                    lookup,
                    step: si,
                    pred: pi,
                    estimate,
                });
            }
        }
        probes
    }

    /// Chooses the execution plan cost-based: enumerate every
    /// candidate probe ([`QueryEngine::candidate_probes`]), rank them
    /// by estimated cardinality, and emit
    ///
    /// * [`Plan::Scan`] when no predicate is covered or even the
    ///   cheapest probe exceeds the scan threshold,
    /// * [`Plan::Intersect`] when a second probe on the same step is
    ///   close enough in selectivity to prune the anchor set further,
    /// * [`Plan::Index`] with the most selective probe otherwise.
    pub fn plan(idx: &IndexManager, query: &Query) -> Plan {
        let mut probes = Self::candidate_probes(idx, query);
        if probes.is_empty() {
            return Plan::Scan;
        }
        probes.sort_by_key(|p| p.estimate.estimate);
        let scan_threshold = (SCAN_FRACTION * idx.approx_node_count() as f64) as usize;
        let best = probes[0].clone();
        if best.estimate.estimate > scan_threshold {
            return Plan::Scan;
        }
        if best.estimate.estimate >= INTERSECT_MIN {
            let partner = probes[1..].iter().find(|p| {
                p.step == best.step
                    && p.pred != best.pred
                    && p.estimate.estimate
                        <= (best.estimate.estimate as f64 * INTERSECT_FACTOR) as usize
                    && p.estimate.estimate <= scan_threshold
            });
            if let Some(second) = partner {
                return Plan::Intersect(best, second.clone());
            }
        }
        Plan::Index(best)
    }

    /// Estimates the evaluation *work* of a whole query — the chosen
    /// probe's candidate estimate, or the document population for a
    /// scan. This is what `IndexManager::estimate` reports for
    /// [`Lookup::XPath`] requests.
    ///
    /// The returned bounds are deliberately vacuous
    /// ([`CardinalityEstimate::unbounded`]): unlike a value probe, a
    /// query's *result* count is not bounded by any probe's candidate
    /// count — reverse anchoring and trailing steps can both fan out —
    /// so no finite `upper` would be sound.
    pub fn estimate_query(idx: &IndexManager, query: &Query) -> CardinalityEstimate {
        match Self::plan(idx, query) {
            Plan::Index(p) => CardinalityEstimate::unbounded(p.estimate.estimate),
            Plan::Intersect(a, b) => {
                CardinalityEstimate::unbounded(a.estimate.estimate.min(b.estimate.estimate))
            }
            Plan::Scan => CardinalityEstimate::unbounded(idx.approx_node_count()),
        }
    }

    /// Index-accelerated evaluation under the default planner
    /// configuration; falls back to a scan when no index applies.
    /// Results are in document order, deduplicated.
    pub fn evaluate(doc: &Document, idx: &IndexManager, query: &Query) -> Vec<NodeId> {
        Self::evaluate_with_plan(doc, idx, query, &Self::plan(idx, query))
    }

    /// Evaluates `query` under an explicitly chosen [`Plan`] (normally
    /// from [`QueryEngine::plan`]; benchmarks use it to compare
    /// plan shapes on identical queries). A probe whose lookup the
    /// index cannot serve falls back to the scan plan.
    pub fn evaluate_with_plan(
        doc: &Document,
        idx: &IndexManager,
        query: &Query,
        plan: &Plan,
    ) -> Vec<NodeId> {
        Self::evaluate_with_plan_probed(doc, idx, query, plan, None, &mut None)
    }

    /// [`QueryEngine::evaluate_with_plan`] with observability taps:
    /// when `trace` is set, the index-probe and verify-walk phases are
    /// recorded as [`Stage::Probe`] / [`Stage::VerifyWalk`] stage
    /// samples (a plan that scans records [`Stage::Execute`] instead);
    /// when `probed` is `Some`, the chosen probes' candidate counts
    /// are accumulated into it — the *actual* cardinality the service
    /// compares against the planner's estimate for drift metrics.
    pub fn evaluate_with_plan_probed(
        doc: &Document,
        idx: &IndexManager,
        query: &Query,
        plan: &Plan,
        trace: Option<&Trace>,
        probed: &mut Option<usize>,
    ) -> Vec<NodeId> {
        // A probe that does not address a predicate of *this* query —
        // out-of-range indexes, a lookup that is not the addressed
        // predicate's own lowering, or an intersection whose probes
        // sit on different steps — cannot be evaluated soundly; treat
        // it like an unservable lookup and scan instead of panicking
        // or silently returning the wrong candidates' matches.
        let addresses_query = |p: &Probe| {
            query
                .steps
                .get(p.step)
                .and_then(|s| s.preds.get(p.pred))
                .and_then(|pred| Self::lower_predicate(idx, pred))
                .is_some_and(|lowered| lowered == p.lookup)
        };
        let valid = match plan {
            Plan::Scan => true,
            Plan::Index(p) => addresses_query(p),
            Plan::Intersect(a, b) => a.step == b.step && addresses_query(a) && addresses_query(b),
        };
        if !valid {
            return Self::scan_traced(doc, query, trace);
        }
        match plan {
            Plan::Scan => Self::scan_traced(doc, query, trace),
            Plan::Index(p) => {
                let t0 = trace.map(|t| t.now_ns());
                let candidates = idx.query(doc, &p.lookup);
                if let (Some(t), Some(t0)) = (trace, t0) {
                    t.record_stage(Stage::Probe, t0);
                }
                let Ok(candidates) = candidates else {
                    return Self::scan_traced(doc, query, trace);
                };
                if let Some(n) = probed.as_mut() {
                    *n += candidates.len();
                }
                let t0 = trace.map(|t| t.now_ns());
                let anchors = Self::anchors_of(doc, query, p.step, p.pred, &candidates);
                let out = Self::finish_from_anchors(doc, query, p.step, &[p.pred], anchors);
                if let (Some(t), Some(t0)) = (trace, t0) {
                    t.record_stage(Stage::VerifyWalk, t0);
                }
                out
            }
            Plan::Intersect(a, b) => {
                let t0 = trace.map(|t| t.now_ns());
                let probes = (idx.query(doc, &a.lookup), idx.query(doc, &b.lookup));
                if let (Some(t), Some(t0)) = (trace, t0) {
                    t.record_stage(Stage::Probe, t0);
                }
                let (Ok(ca), Ok(cb)) = probes else {
                    return Self::scan_traced(doc, query, trace);
                };
                if let Some(n) = probed.as_mut() {
                    *n += ca.len() + cb.len();
                }
                let t0 = trace.map(|t| t.now_ns());
                let anchors_a = Self::anchors_of(doc, query, a.step, a.pred, &ca);
                let anchors_b = Self::anchors_of(doc, query, b.step, b.pred, &cb);
                let anchors: HashSet<NodeId> =
                    anchors_a.intersection(&anchors_b).copied().collect();
                let out = Self::finish_from_anchors(doc, query, a.step, &[a.pred, b.pred], anchors);
                if let (Some(t), Some(t0)) = (trace, t0) {
                    t.record_stage(Stage::VerifyWalk, t0);
                }
                out
            }
        }
    }

    /// [`QueryEngine::evaluate_scan`] recorded as one
    /// [`Stage::Execute`] sample when traced.
    fn scan_traced(doc: &Document, query: &Query, trace: Option<&Trace>) -> Vec<NodeId> {
        let t0 = trace.map(|t| t.now_ns());
        let out = Self::evaluate_scan(doc, query);
        if let (Some(t), Some(t0)) = (trace, t0) {
            t.record_stage(Stage::Execute, t0);
        }
        out
    }

    /// Explains how [`QueryEngine::evaluate`] serves `query`: the
    /// chosen plan, estimated vs. actual cardinality for **every**
    /// candidate predicate, the chosen probe's candidate count, and
    /// the final result count.
    ///
    /// ```
    /// use xvi_index::{Document, IndexConfig, IndexManager, QueryEngine};
    ///
    /// let doc = Document::parse("<r><p><age>42</age></p><p><age>7</age></p></r>").unwrap();
    /// let idx = IndexManager::build(&doc, IndexConfig::default());
    /// let q = QueryEngine::parse("//p[age = 42]").unwrap();
    /// let ex = QueryEngine::explain(&doc, &idx, &q);
    /// assert!(ex.to_string().contains("index probe"));
    /// assert_eq!(ex.results, 1);
    /// ```
    pub fn explain(doc: &Document, idx: &IndexManager, query: &Query) -> Explanation {
        let plan = Self::plan(idx, query);
        let chosen = |step: usize, pred: usize| match &plan {
            Plan::Index(p) => p.step == step && p.pred == pred,
            Plan::Intersect(a, b) => {
                (a.step == step && a.pred == pred) || (b.step == step && b.pred == pred)
            }
            Plan::Scan => false,
        };
        let mut probed = match plan {
            Plan::Scan => None,
            _ => Some(0),
        };
        let predicates: Vec<PredicateReport> = Self::candidate_probes(idx, query)
            .into_iter()
            .map(|p| {
                let actual = idx
                    .query(doc, &p.lookup)
                    .map(|c| c.len())
                    .unwrap_or_default();
                let chosen = chosen(p.step, p.pred);
                if chosen {
                    if let Some(total) = probed.as_mut() {
                        *total += actual;
                    }
                }
                PredicateReport {
                    step: p.step,
                    pred: p.pred,
                    lookup: p.lookup,
                    estimate: p.estimate,
                    actual,
                    chosen,
                }
            })
            .collect();
        let results = Self::evaluate_with_plan(doc, idx, query, &plan).len();
        Explanation {
            plan,
            predicates,
            probed,
            results,
        }
    }

    /// Pure tree-walk evaluation (the baseline the index beats).
    pub fn evaluate_scan(doc: &Document, query: &Query) -> Vec<NodeId> {
        let result = Self::forward_eval(doc, vec![doc.document_node()], &query.steps);
        Self::in_doc_order(doc, result.into_iter().collect())
    }

    // ----- scan machinery ----------------------------------------------------

    /// Applies `steps` (with their predicates) forward from a context
    /// set, exactly as the scan evaluator walks the outer path.
    fn forward_eval(doc: &Document, contexts: Vec<NodeId>, steps: &[Step]) -> Vec<NodeId> {
        let mut context = contexts;
        for step in steps {
            let mut next = Vec::new();
            for &c in &context {
                Self::apply_step(doc, c, step, &mut next);
            }
            let mut pass = Vec::new();
            for n in next {
                if step.preds.iter().all(|p| Self::eval_predicate(doc, n, p)) {
                    pass.push(n);
                }
            }
            context = pass;
        }
        context
    }

    fn apply_step(doc: &Document, ctx: NodeId, step: &Step, out: &mut Vec<NodeId>) {
        match (step.axis, &step.test) {
            (Axis::SelfAxis, _) => {
                if Self::matches_test(doc, ctx, &step.test) {
                    out.push(ctx);
                }
            }
            (Axis::Child, Test::Attr(name)) => {
                out.extend(doc.attribute(ctx, name));
            }
            (Axis::Child, _) => {
                out.extend(
                    doc.children(ctx)
                        .filter(|&n| Self::matches_test(doc, n, &step.test)),
                );
            }
            (Axis::Descendant, Test::Attr(name)) => {
                for n in doc.descendants_or_self(ctx) {
                    out.extend(doc.attribute(n, name));
                }
            }
            (Axis::Descendant, _) => {
                out.extend(
                    doc.descendants(ctx)
                        .filter(|&n| Self::matches_test(doc, n, &step.test)),
                );
            }
        }
    }

    fn matches_test(doc: &Document, n: NodeId, test: &Test) -> bool {
        match test {
            Test::Any => matches!(doc.kind(n), NodeKind::Element(_)),
            Test::Name(name) => {
                matches!(doc.kind(n), NodeKind::Element(_)) && doc.name(n) == Some(name)
            }
            Test::Text => matches!(doc.kind(n), NodeKind::Text(_)),
            Test::Attr(name) => {
                matches!(doc.kind(n), NodeKind::Attribute { .. }) && doc.name(n) == Some(name)
            }
        }
    }

    fn eval_predicate(doc: &Document, ctx: NodeId, pred: &Predicate) -> bool {
        let selected = Self::forward_eval(doc, vec![ctx], &pred.path);
        match &pred.cmp {
            None => !selected.is_empty(),
            Some((op, lit)) => selected.iter().any(|&m| Self::compare(doc, m, *op, lit)),
        }
    }

    /// XQuery-flavoured general comparison of one node against a
    /// literal: strings compare on the XDM string value, numbers on
    /// the double cast of the string value (non-castable ⇒ false).
    fn compare(doc: &Document, m: NodeId, op: CmpOp, lit: &Literal) -> bool {
        match lit {
            Literal::Str(s) => {
                let v = doc.string_value(m);
                match op {
                    CmpOp::Eq => v == *s,
                    CmpOp::Ne => v != *s,
                    // Lexicographic order on strings, as XPath does for
                    // string comparisons.
                    CmpOp::Lt => v < *s,
                    CmpOp::Le => v <= *s,
                    CmpOp::Gt => v > *s,
                    CmpOp::Ge => v >= *s,
                }
            }
            Literal::Num(x) => {
                let Some(v) = XmlType::Double.cast(&doc.string_value(m)) else {
                    return false;
                };
                match op {
                    CmpOp::Eq => v == *x,
                    CmpOp::Ne => v != *x,
                    CmpOp::Lt => v < *x,
                    CmpOp::Le => v <= *x,
                    CmpOp::Gt => v > *x,
                    CmpOp::Ge => v >= *x,
                }
            }
        }
    }

    // ----- index machinery ----------------------------------------------------

    /// Given nodes found *by value* for the probe at `(step_idx,
    /// pred_idx)`, derive the **anchor candidates**: nodes the probed
    /// step could select such that the predicate path reaches a
    /// candidate. Anchors are not yet verified against the rest of the
    /// query.
    fn anchors_of(
        doc: &Document,
        query: &Query,
        step_idx: usize,
        pred_idx: usize,
        candidates: &[NodeId],
    ) -> HashSet<NodeId> {
        let step = &query.steps[step_idx];
        let pred = &step.preds[pred_idx];
        let mut anchors = HashSet::new();
        for &m in candidates {
            for ctx in Self::reverse_contexts(doc, m, &pred.path) {
                if Self::matches_test(doc, ctx, &step.test) {
                    anchors.insert(ctx);
                }
            }
        }
        anchors
    }

    /// Verifies anchors against the query prefix (absolute path up to
    /// and including the probed step), then evaluates the remaining
    /// steps forward from the survivors.
    ///
    /// The probed predicates (`skip_preds`, positions within the
    /// anchor step) are **not** re-evaluated: their anchors came from
    /// index candidates the probe already value-verified and
    /// reverse-matched through the predicate path, so a per-anchor
    /// tree walk would only repeat that work. Every other predicate —
    /// on the anchor step and on every prefix step — is checked.
    fn finish_from_anchors(
        doc: &Document,
        query: &Query,
        step_idx: usize,
        skip_preds: &[usize],
        anchors: HashSet<NodeId>,
    ) -> Vec<NodeId> {
        let step = &query.steps[step_idx];
        // Prefix with the anchor step's predicates stripped; the ones
        // not covered by the probes are checked directly below.
        let mut prefix = query.steps[..=step_idx].to_vec();
        prefix[step_idx].preds = Vec::new();
        let verified: Vec<NodeId> = anchors
            .into_iter()
            .filter(|&ctx| {
                step.preds
                    .iter()
                    .enumerate()
                    .all(|(i, p)| skip_preds.contains(&i) || Self::eval_predicate(doc, ctx, p))
                    && Self::matches_prefix(doc, ctx, &prefix)
            })
            .collect();
        let result = Self::forward_eval(doc, verified, &query.steps[step_idx + 1..]);
        Self::in_doc_order(doc, result.into_iter().collect())
    }

    /// All nodes `c` such that evaluating `steps` from `c` selects
    /// `m`. Each reverse position also enforces the step's predicates,
    /// so the returned contexts satisfy the whole sub-path, not just
    /// its axis/test skeleton.
    fn reverse_contexts(doc: &Document, m: NodeId, steps: &[Step]) -> Vec<NodeId> {
        let mut cur = vec![m];
        for step in steps.iter().rev() {
            let mut prev = Vec::new();
            for &x in &cur {
                if !Self::matches_test_or_self(doc, x, step) {
                    continue;
                }
                if !step.preds.iter().all(|p| Self::eval_predicate(doc, x, p)) {
                    continue;
                }
                match step.axis {
                    Axis::SelfAxis => prev.push(x),
                    Axis::Child => prev.extend(doc.parent(x)),
                    Axis::Descendant => {
                        let mut p = doc.parent(x);
                        while let Some(a) = p {
                            prev.push(a);
                            p = doc.parent(a);
                        }
                    }
                }
            }
            prev.sort();
            prev.dedup();
            cur = prev;
        }
        cur
    }

    fn matches_test_or_self(doc: &Document, x: NodeId, step: &Step) -> bool {
        match (step.axis, &step.test) {
            // `.` matches whatever node it is.
            (Axis::SelfAxis, Test::Any) => true,
            _ => Self::matches_test(doc, x, &step.test),
        }
    }

    /// Whether `node` is selected by the absolute path `steps`
    /// (anchored at the document node), predicates included.
    fn matches_prefix(doc: &Document, node: NodeId, steps: &[Step]) -> bool {
        Self::reverse_contexts(doc, node, steps).contains(&doc.document_node())
    }

    /// Result sets at most this large are ordered by comparing
    /// root-path sibling ranks (cost proportional to the involved
    /// ancestor chains); larger sets amortise one full
    /// [`Document::pre_post_view`] pass instead.
    const SMALL_ORDER: usize = 256;

    fn in_doc_order(doc: &Document, nodes: HashSet<NodeId>) -> Vec<NodeId> {
        let mut v: Vec<NodeId> = nodes.into_iter().collect();
        if v.len() > Self::SMALL_ORDER {
            let view = doc.pre_post_view();
            // Attributes have no pre rank; order them just after their
            // owner element by (owner pre, attribute arena index).
            v.sort_by_key(|&n| match view.pre(n) {
                Some(p) => (p, 0usize),
                None => (
                    doc.parent(n)
                        .and_then(|p| view.pre(p))
                        .unwrap_or(usize::MAX),
                    n.index() + 1,
                ),
            });
            return v;
        }
        // Small result set: avoid the O(document) pre/post pass. Each
        // node's sort key is its chain of sibling ranks from the root
        // (lexicographic order on those chains *is* document order);
        // sibling ranks are computed once per involved parent.
        let mut ranks: std::collections::HashMap<NodeId, std::collections::HashMap<NodeId, i64>> =
            std::collections::HashMap::new();
        let mut rank_under = |parent: NodeId, child: NodeId| -> i64 {
            *ranks
                .entry(parent)
                .or_insert_with(|| {
                    doc.children(parent)
                        .enumerate()
                        .map(|(i, c)| (c, i as i64))
                        .collect()
                })
                .get(&child)
                .expect("child listed under its parent")
        };
        let keys: std::collections::HashMap<NodeId, Vec<i64>> = v
            .iter()
            .map(|&n| {
                // An attribute sorts right after its owner element and
                // before the owner's children: a trailing negative
                // component keyed by arena index does both.
                let (mut cur, mut key) = match doc.kind(n) {
                    NodeKind::Attribute { .. } => (
                        doc.parent(n).expect("attributes have an owner"),
                        vec![i64::MIN + n.index() as i64],
                    ),
                    _ => (n, Vec::new()),
                };
                while let Some(p) = doc.parent(cur) {
                    key.push(rank_under(p, cur));
                    cur = p;
                }
                key.reverse();
                (n, key)
            })
            .collect();
        v.sort_by(|a, b| keys[a].cmp(&keys[b]));
        v
    }
}

// ----- parser ------------------------------------------------------------

struct Parser<'a> {
    chars: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err<T>(&self, msg: impl Into<String>) -> Result<T, IndexError> {
        Err(IndexError::QuerySyntax(format!(
            "{} (at offset {})",
            msg.into(),
            self.pos
        )))
    }

    fn peek(&self) -> Option<u8> {
        self.chars.get(self.pos).copied()
    }

    fn eat(&mut self, s: &str) -> bool {
        if self.chars[self.pos..].starts_with(s.as_bytes()) {
            self.pos += s.len();
            true
        } else {
            false
        }
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t')) {
            self.pos += 1;
        }
    }

    fn query(&mut self) -> Result<Query, IndexError> {
        let mut steps = Vec::new();
        loop {
            self.skip_ws();
            let axis = if self.eat("//") {
                Axis::Descendant
            } else if self.eat("/") {
                Axis::Child
            } else if steps.is_empty() {
                return self.err("queries start with '/' or '//'");
            } else {
                break;
            };
            steps.push(self.step(axis)?);
            if self.pos >= self.chars.len() {
                break;
            }
        }
        self.skip_ws();
        if self.pos != self.chars.len() {
            return self.err("trailing input");
        }
        if steps.is_empty() {
            return self.err("empty query");
        }
        Ok(Query { steps })
    }

    fn step(&mut self, axis: Axis) -> Result<Step, IndexError> {
        let test = self.test()?;
        let mut preds = Vec::new();
        loop {
            self.skip_ws();
            if !self.eat("[") {
                break;
            }
            preds.push(self.predicate()?);
            self.skip_ws();
            if !self.eat("]") {
                return self.err("expected ']'");
            }
        }
        Ok(Step { axis, test, preds })
    }

    fn test(&mut self) -> Result<Test, IndexError> {
        self.skip_ws();
        if self.eat("*") {
            return Ok(Test::Any);
        }
        if self.eat("@") {
            return Ok(Test::Attr(self.name()?));
        }
        let name = self.name()?;
        if name == "text" && self.eat("()") {
            return Ok(Test::Text);
        }
        Ok(Test::Name(name))
    }

    fn name(&mut self) -> Result<String, IndexError> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b.is_ascii_alphanumeric() || matches!(b, b'_' | b'-' | b'.' | b':') {
                self.pos += 1;
            } else {
                break;
            }
        }
        if self.pos == start {
            return self.err("expected a name");
        }
        Ok(String::from_utf8_lossy(&self.chars[start..self.pos]).into_owned())
    }

    fn predicate(&mut self) -> Result<Predicate, IndexError> {
        self.skip_ws();
        let wrapped_in_data = self.eat("data(") || self.eat("fn:data(");
        let path = self.rel_path()?;
        if wrapped_in_data {
            self.skip_ws();
            if !self.eat(")") {
                return self.err("expected ')' after data(…)");
            }
        }
        self.skip_ws();
        let cmp = if let Some(op) = self.cmp_op() {
            self.skip_ws();
            Some((op, self.literal()?))
        } else {
            None
        };
        Ok(Predicate { path, cmp })
    }

    fn rel_path(&mut self) -> Result<Vec<Step>, IndexError> {
        self.skip_ws();
        let mut steps = Vec::new();
        // Leading context marker.
        if self.eat(".//") {
            steps.push(self.step(Axis::Descendant)?);
        } else if self.eat("./") {
            steps.push(self.step(Axis::Child)?);
        } else if self.peek() == Some(b'.') {
            self.pos += 1;
            // Bare '.': the context node itself.
            return Ok(vec![Step {
                axis: Axis::SelfAxis,
                test: Test::Any,
                preds: Vec::new(),
            }]);
        } else {
            steps.push(self.step(Axis::Child)?);
        }
        loop {
            if self.eat("//") {
                steps.push(self.step(Axis::Descendant)?);
            } else if self.eat("/") {
                steps.push(self.step(Axis::Child)?);
            } else {
                break;
            }
        }
        Ok(steps)
    }

    fn cmp_op(&mut self) -> Option<CmpOp> {
        self.skip_ws();
        for (tok, op) in [
            ("!=", CmpOp::Ne),
            ("<=", CmpOp::Le),
            (">=", CmpOp::Ge),
            ("=", CmpOp::Eq),
            ("<", CmpOp::Lt),
            (">", CmpOp::Gt),
        ] {
            if self.eat(tok) {
                return Some(op);
            }
        }
        None
    }

    fn literal(&mut self) -> Result<Literal, IndexError> {
        self.skip_ws();
        if let Some(q @ (b'"' | b'\'')) = self.peek() {
            self.pos += 1;
            let start = self.pos;
            while let Some(b) = self.peek() {
                if b == q {
                    let s = String::from_utf8_lossy(&self.chars[start..self.pos]).into_owned();
                    self.pos += 1;
                    return Ok(Literal::Str(s));
                }
                self.pos += 1;
            }
            return self.err("unterminated string literal");
        }
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b.is_ascii_digit() || matches!(b, b'.' | b'-' | b'+' | b'e' | b'E') {
                self.pos += 1;
            } else {
                break;
            }
        }
        if self.pos == start {
            return self.err("expected a literal");
        }
        let text = std::str::from_utf8(&self.chars[start..self.pos]).expect("ascii");
        match text.parse::<f64>() {
            Ok(v) => Ok(Literal::Num(v)),
            Err(_) => self.err(format!("bad number `{text}`")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::IndexConfig;

    const PERSONS: &str = r#"<persons>
        <person id="p1"><name><first>Arthur</first><family>Dent</family></name>
            <age><decades>4</decades>2<years/></age></person>
        <person id="p2"><name><first>Ford</first><family>Prefect</family></name>
            <age>200</age></person>
        <person id="p3"><name><first>Tricia</first><family>McMillan</family></name>
            <age>30</age></person>
    </persons>"#;

    fn setup() -> (Document, IndexManager) {
        let doc = Document::parse(PERSONS).unwrap();
        let idx = IndexManager::build(&doc, IndexConfig::default());
        (doc, idx)
    }

    fn names_of(doc: &Document, nodes: &[NodeId]) -> Vec<String> {
        nodes
            .iter()
            .map(|&n| {
                doc.attribute_value(n, "id")
                    .map(str::to_owned)
                    .or_else(|| doc.name(n).map(str::to_owned))
                    .unwrap_or_else(|| doc.string_value(n))
            })
            .collect()
    }

    #[test]
    fn parse_paper_queries() {
        for q in [
            "//person[.//age = 42]",
            "//person[first/text() = \"Arthur\"]",
            "//*[data(name) = \"ArthurDent\"]",
            "/persons/person[@id = \"p1\"]",
            "//person[age < 100]",
            "//person[age]",
            "//person",
            "//person[.//age = 42][first/text() = \"Arthur\"]",
        ] {
            QueryEngine::parse(q).unwrap_or_else(|e| panic!("{q}: {e}"));
        }
    }

    #[test]
    fn parse_multi_predicate_step() {
        let q = QueryEngine::parse("//person[age = 42][first = \"Arthur\"]").unwrap();
        assert_eq!(q.steps.len(), 1);
        assert_eq!(q.steps[0].preds.len(), 2);
    }

    #[test]
    fn parse_errors() {
        for q in ["", "person", "//person[", "//person[age <]", "//person]"] {
            assert!(QueryEngine::parse(q).is_err(), "{q:?} should fail");
        }
    }

    #[test]
    fn scan_and_index_agree_on_paper_queries() {
        let (doc, idx) = setup();
        for q in [
            "//person[.//age = 42]",
            "//person[first/text() = \"Arthur\"]",
            "//*[data(name) = \"ArthurDent\"]",
            "/persons/person[@id = \"p2\"]",
            "//person[age < 100]",
            "//person[age >= 30]",
            "//person[age > 42]",
            "//person[name]",
            "//first",
            "//person[family/text() != \"Dent\"]",
            // Multi-predicate and non-final-step predicates.
            "//person[.//age = 200][.//first/text() = \"Ford\"]",
            "//person[.//age = 200][.//first/text() = \"Arthur\"]",
            "//person[.//age >= 30]/name/first",
            "//person[.//first/text() = \"Tricia\"]/age",
            "//person[name][.//age < 100]",
        ] {
            let query = QueryEngine::parse(q).unwrap();
            let scan = QueryEngine::evaluate_scan(&doc, &query);
            let fast = QueryEngine::evaluate(&doc, &idx, &query);
            assert_eq!(scan, fast, "results differ for {q}");
        }
    }

    #[test]
    fn mixed_content_age_is_found() {
        let (doc, idx) = setup();
        let q = QueryEngine::parse("//person[.//age = 42]").unwrap();
        let hits = QueryEngine::evaluate(&doc, &idx, &q);
        assert_eq!(names_of(&doc, &hits), vec!["p1"]);
        assert!(matches!(
            QueryEngine::plan(&idx, &q),
            Plan::Index(Probe {
                lookup: Lookup::RangeF64(_),
                ..
            })
        ));
    }

    #[test]
    fn string_equality_uses_equi_index() {
        let (doc, idx) = setup();
        // <first> is nested under <name>, so the descendant axis is
        // needed from <person>.
        let q = QueryEngine::parse("//person[.//first/text() = \"Ford\"]").unwrap();
        assert_eq!(
            QueryEngine::plan(&idx, &q).lookup(),
            Some(&Lookup::equi("Ford"))
        );
        let hits = QueryEngine::evaluate(&doc, &idx, &q);
        assert_eq!(names_of(&doc, &hits), vec!["p2"]);
        // A direct-child path from <person> correctly finds nothing.
        let q = QueryEngine::parse("//person[first/text() = \"Ford\"]").unwrap();
        assert!(QueryEngine::evaluate(&doc, &idx, &q).is_empty());
    }

    #[test]
    fn attribute_predicate() {
        let (doc, idx) = setup();
        let q = QueryEngine::parse("/persons/person[@id = \"p3\"]").unwrap();
        let hits = QueryEngine::evaluate(&doc, &idx, &q);
        assert_eq!(names_of(&doc, &hits), vec!["p3"]);
    }

    #[test]
    fn range_queries() {
        let (doc, idx) = setup();
        let q = QueryEngine::parse("//person[age <= 42]").unwrap();
        let hits = QueryEngine::evaluate(&doc, &idx, &q);
        assert_eq!(names_of(&doc, &hits), vec!["p1", "p3"]);

        let q = QueryEngine::parse("//person[age > 42]").unwrap();
        let hits = QueryEngine::evaluate(&doc, &idx, &q);
        assert_eq!(names_of(&doc, &hits), vec!["p2"]);
    }

    #[test]
    fn existence_predicate_scans() {
        let (doc, idx) = setup();
        let q = QueryEngine::parse("//person[years]").unwrap();
        assert_eq!(QueryEngine::plan(&idx, &q), Plan::Scan);
        // <years/> only exists under p1's mixed-content age… one level
        // deeper, so //person[years] matches nothing:
        assert!(QueryEngine::evaluate(&doc, &idx, &q).is_empty());
        let q = QueryEngine::parse("//person[.//years]").unwrap();
        let hits = QueryEngine::evaluate(&doc, &idx, &q);
        assert_eq!(names_of(&doc, &hits), vec!["p1"]);
    }

    #[test]
    fn results_are_in_document_order() {
        let (doc, idx) = setup();
        let q = QueryEngine::parse("//person[age < 1000]").unwrap();
        let hits = QueryEngine::evaluate(&doc, &idx, &q);
        assert_eq!(names_of(&doc, &hits), vec!["p1", "p2", "p3"]);
    }

    #[test]
    fn ne_predicate_falls_back_to_scan() {
        let (_, idx) = setup();
        let q = QueryEngine::parse("//person[age != 42]").unwrap();
        assert_eq!(QueryEngine::plan(&idx, &q), Plan::Scan);
    }

    /// Satellite regression: with two predicates on the final step,
    /// both are enumerated as candidates and the *more selective* one
    /// is chosen — regardless of predicate order. (The pre-cost-based
    /// planner only ever looked at a lone final-step predicate.)
    #[test]
    fn most_selective_predicate_wins_regardless_of_order() {
        // "common" appears in every <p>; each <name> value once.
        let mut xml = String::from("<r>");
        for i in 0..12 {
            xml.push_str(&format!("<p><tag>common</tag><name>name{i}</name></p>"));
        }
        xml.push_str("</r>");
        let doc = Document::parse(&xml).unwrap();
        let idx = IndexManager::build(&doc, IndexConfig::default());
        for q in [
            "//p[.//name = \"name7\"][.//tag = \"common\"]",
            "//p[.//tag = \"common\"][.//name = \"name7\"]",
        ] {
            let query = QueryEngine::parse(q).unwrap();
            let probes = QueryEngine::candidate_probes(&idx, &query);
            assert_eq!(probes.len(), 2, "{q}: both predicates enumerated");
            let plan = QueryEngine::plan(&idx, &query);
            assert_eq!(
                plan.lookup(),
                Some(&Lookup::equi("name7")),
                "{q}: the selective predicate must win, got {plan}"
            );
            let hits = QueryEngine::evaluate(&doc, &idx, &query);
            assert_eq!(hits, QueryEngine::evaluate_scan(&doc, &query), "{q}");
            assert_eq!(hits.len(), 1, "{q}");
        }
    }

    /// A predicate on a *non-final* step is planned and evaluated
    /// through the index, with the remaining steps walked forward from
    /// the verified anchors.
    #[test]
    fn non_final_step_predicate_is_planned() {
        let (doc, idx) = setup();
        let q = QueryEngine::parse("//person[.//first/text() = \"Ford\"]/age").unwrap();
        let plan = QueryEngine::plan(&idx, &q);
        assert!(matches!(&plan, Plan::Index(p) if p.step == 0), "{plan}");
        let hits = QueryEngine::evaluate(&doc, &idx, &q);
        assert_eq!(hits, QueryEngine::evaluate_scan(&doc, &q));
        assert_eq!(hits.len(), 1);
        assert_eq!(doc.string_value(hits[0]), "200");
    }

    /// Two same-step predicates of similar selectivity, both past
    /// `INTERSECT_MIN`, are intersected, and the intersection agrees
    /// with the scan.
    #[test]
    fn intersection_of_two_probes() {
        let mut xml = String::from("<r>");
        for i in 0..400 {
            let a = if i % 2 == 0 { "even" } else { "odd" };
            let b = if i % 3 == 0 { "fizz" } else { "buzz" };
            xml.push_str(&format!("<p><a>{a}</a><b>{b}</b></p>"));
        }
        xml.push_str("</r>");
        let doc = Document::parse(&xml).unwrap();
        let idx = IndexManager::build(&doc, IndexConfig::default());
        let q = QueryEngine::parse("//p[.//a = \"even\"][.//b = \"fizz\"]").unwrap();
        let plan = QueryEngine::plan(&idx, &q);
        assert!(matches!(plan, Plan::Intersect(_, _)), "{plan}");
        let fast = QueryEngine::evaluate_with_plan(&doc, &idx, &q, &plan);
        assert_eq!(fast, QueryEngine::evaluate_scan(&doc, &q));
        // i % 2 == 0 && i % 3 == 0 → every sixth i in 0..400.
        assert_eq!(fast.len(), 67);
    }

    /// The scan threshold: a probe expected to cover more than half of
    /// the document's nodes is not worth verifying, so the plan is a
    /// scan — and answers exactly as the scan does.
    #[test]
    fn scan_threshold_knob() {
        let xml = format!("<r>{}</r>", "<p>x</p>".repeat(50));
        let doc = Document::parse(&xml).unwrap();
        let idx = IndexManager::build(&doc, IndexConfig::default());
        let est = idx.estimate(&Lookup::equi("x")).unwrap();
        assert!(2 * est.estimate > idx.approx_node_count(), "{est:?}");
        let q = QueryEngine::parse("//p[text() = \"x\"]").unwrap();
        assert_eq!(QueryEngine::plan(&idx, &q), Plan::Scan);
        let hits = QueryEngine::evaluate(&doc, &idx, &q);
        assert_eq!(hits, QueryEngine::evaluate_scan(&doc, &q));
        assert_eq!(hits.len(), 50);
    }

    #[test]
    fn explain_reports_candidates_and_results() {
        let (doc, idx) = setup();
        // Index-covered: the value probe for "Arthur" yields the text
        // node and its <first> parent; only <person id="p1"> survives
        // the reverse path match.
        let q = QueryEngine::parse("//person[.//first/text() = \"Arthur\"]").unwrap();
        let ex = QueryEngine::explain(&doc, &idx, &q);
        assert_eq!(ex.plan.lookup(), Some(&Lookup::equi("Arthur")));
        assert_eq!(ex.probed, Some(2));
        assert_eq!(ex.results, 1);
        assert_eq!(ex.predicates.len(), 1);
        assert_eq!(ex.predicates[0].actual, 2);
        assert!(ex.predicates[0].chosen);
        let rendered = ex.to_string();
        assert!(rendered.contains("index probe"), "{rendered}");
        assert!(rendered.contains("2 candidate(s)"), "{rendered}");
        assert!(rendered.contains("est"), "{rendered}");
        assert!(rendered.contains("actual 2"), "{rendered}");

        // Scan fallback: no candidates to report.
        let q = QueryEngine::parse("//person[years]").unwrap();
        let ex = QueryEngine::explain(&doc, &idx, &q);
        assert_eq!(ex.plan, Plan::Scan);
        assert_eq!(ex.probed, None);
        assert!(ex.predicates.is_empty());
        assert!(ex.to_string().contains("full document scan"));
    }

    /// Estimated *and* actual cardinalities are reported for every
    /// candidate predicate, chosen or not.
    #[test]
    fn explain_reports_est_and_actual_for_every_candidate() {
        let (doc, idx) = setup();
        let q = QueryEngine::parse("//person[.//age = 200][.//first/text() = \"Ford\"]").unwrap();
        let ex = QueryEngine::explain(&doc, &idx, &q);
        assert_eq!(ex.predicates.len(), 2);
        for p in &ex.predicates {
            let actual = idx.query(&doc, &p.lookup).unwrap().len();
            assert_eq!(p.actual, actual, "{}", p.lookup);
            assert!(
                p.estimate.lower <= actual && actual <= p.estimate.upper,
                "{}: actual {} outside [{}, {}]",
                p.lookup,
                actual,
                p.estimate.lower,
                p.estimate.upper
            );
        }
        assert_eq!(ex.predicates.iter().filter(|p| p.chosen).count(), 1);
        let rendered = ex.to_string();
        assert!(rendered.matches("est ").count() >= 2, "{rendered}");
    }

    /// The small-set document-order sort (sibling-rank chains) must
    /// order exactly like the pre/post-view sort it bypasses,
    /// attributes included.
    #[test]
    fn small_and_large_doc_order_sorts_agree() {
        let mut xml = String::from("<r>");
        for i in 0..40 {
            xml.push_str(&format!("<p id=\"p{i}\"><a>x{i}</a><b>y{i}</b></p>"));
        }
        xml.push_str("</r>");
        let doc = Document::parse(&xml).unwrap();
        // Every node and attribute, shuffled into a set.
        let mut nodes: HashSet<NodeId> = doc.descendants_or_self(doc.document_node()).collect();
        for n in nodes.clone() {
            nodes.extend(doc.attributes(n));
        }
        let small = QueryEngine::in_doc_order(&doc, nodes.clone());
        assert!(
            small.len() <= QueryEngine::SMALL_ORDER,
            "stay on small path"
        );
        // Reference order from the pre/post view.
        let view = doc.pre_post_view();
        let mut reference: Vec<NodeId> = nodes.into_iter().collect();
        reference.sort_by_key(|&n| match view.pre(n) {
            Some(p) => (p, 0usize),
            None => (
                doc.parent(n)
                    .and_then(|p| view.pre(p))
                    .unwrap_or(usize::MAX),
                n.index() + 1,
            ),
        });
        assert_eq!(small, reference);
    }

    #[test]
    fn explain_counts_match_evaluate() {
        let (doc, idx) = setup();
        for q in ["//person[age <= 42]", "//person[.//age = 42]", "//first"] {
            let query = QueryEngine::parse(q).unwrap();
            let ex = QueryEngine::explain(&doc, &idx, &query);
            assert_eq!(
                ex.results,
                QueryEngine::evaluate(&doc, &idx, &query).len(),
                "{q}"
            );
        }
    }
}
