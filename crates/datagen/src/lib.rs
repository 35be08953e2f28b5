//! # xvi-datagen — synthetic XML workloads
//!
//! The paper evaluates on eight documents: four XMark-generated
//! auction sites (scale factors 1–8) and four "real life" datasets
//! (EPAGeo geospatial data, DBLP publications, PSD protein sequences,
//! Wikipedia abstracts). Neither the XMark binary nor the dataset
//! downloads are available offline, so this crate generates
//! *shape-equivalent* substitutes: documents whose node-kind mix,
//! value-type mix, string-length profile and structural depth match
//! the paper's Table 1 statistics, scaled to laptop size (about 1/16
//! of the paper's sizes by default). The indices only ever observe
//! those shape statistics — not auction semantics — so every
//! experiment's relative behaviour is preserved (see DESIGN.md §3).
//!
//! All generators are deterministic in their seed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod probes;
pub mod reallife;
pub mod updates;
mod vocab;
pub mod xmark;

pub use updates::UpdateWorkload;

/// The paper's eight evaluation datasets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dataset {
    /// XMark-shaped auction site at the given scale factor (1, 2, 4, 8
    /// in the paper).
    XMark(u32),
    /// Geospatial facility data (coordinate-heavy; ~7% doubles).
    EpaGeo,
    /// Publication records; contains a few non-leaf double nodes.
    Dblp,
    /// Protein sequence data: long strings, some non-leaf doubles.
    Psd,
    /// Abstracts + URLs; almost no doubles, URL hash-collision
    /// pathology for the Figure 11 tail.
    Wiki,
}

impl Dataset {
    /// The eight datasets in the paper's Table 1 order.
    pub fn paper_suite() -> Vec<Dataset> {
        vec![
            Dataset::XMark(1),
            Dataset::XMark(2),
            Dataset::XMark(4),
            Dataset::XMark(8),
            Dataset::EpaGeo,
            Dataset::Dblp,
            Dataset::Psd,
            Dataset::Wiki,
        ]
    }

    /// Display name matching the paper's tables.
    pub fn name(self) -> String {
        match self {
            Dataset::XMark(sf) => format!("XMark{sf}"),
            Dataset::EpaGeo => "EPAGeo".into(),
            Dataset::Dblp => "DBLP".into(),
            Dataset::Psd => "PSD".into(),
            Dataset::Wiki => "Wiki".into(),
        }
    }

    /// Generates the dataset as XML text with the default per-dataset
    /// size (paper size ÷ 16) at `scale_permille` = 1000.
    ///
    /// `scale_permille` scales the document size further, e.g. 100 for
    /// quick tests; sizes scale linearly.
    pub fn generate(self, scale_permille: u32) -> String {
        let seed = 0x5EED ^ (scale_permille as u64);
        match self {
            Dataset::XMark(sf) => xmark::generate(sf * scale_permille, seed),
            Dataset::EpaGeo => reallife::epageo(scale_permille, seed),
            Dataset::Dblp => reallife::dblp(scale_permille, seed),
            Dataset::Psd => reallife::psd(scale_permille, seed),
            Dataset::Wiki => reallife::wiki(scale_permille, seed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xvi_xml::Document;

    #[test]
    fn suite_order_matches_table1() {
        let names: Vec<String> = Dataset::paper_suite().iter().map(|d| d.name()).collect();
        assert_eq!(
            names,
            vec!["XMark1", "XMark2", "XMark4", "XMark8", "EPAGeo", "DBLP", "PSD", "Wiki"]
        );
    }

    #[test]
    fn all_datasets_parse_at_tiny_scale() {
        for ds in Dataset::paper_suite() {
            let xml = ds.generate(10);
            let doc = Document::parse(&xml)
                .unwrap_or_else(|e| panic!("{} does not parse: {e}", ds.name()));
            let stats = doc.stats();
            assert!(stats.total_nodes > 50, "{} too small: {stats:?}", ds.name());
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = Dataset::XMark(1).generate(10);
        let b = Dataset::XMark(1).generate(10);
        assert_eq!(a, b);
    }

    #[test]
    fn scale_is_roughly_linear() {
        let small = Dataset::Dblp.generate(10).len();
        let large = Dataset::Dblp.generate(40).len();
        let ratio = large as f64 / small as f64;
        assert!(
            (2.5..6.0).contains(&ratio),
            "4x scale gave {ratio:.2}x bytes"
        );
    }

    #[test]
    fn text_node_share_matches_paper_shape() {
        // Table 1: text nodes are 56-66% of all nodes in every dataset.
        for ds in Dataset::paper_suite() {
            let xml = ds.generate(20);
            let doc = Document::parse(&xml).unwrap();
            let s = doc.stats();
            let share = s.text_nodes as f64 / s.total_nodes as f64;
            assert!(
                (0.38..0.75).contains(&share),
                "{}: text share {share:.2} out of shape",
                ds.name()
            );
        }
    }
}
