//! Differential tests of the shredder against the public construction
//! API.
//!
//! `Document::parse` stages its nodes in plain storage and pages them
//! once at the end; `append_element`, `set_attribute`, `create_text` and
//! the rest write through the paged arena. Both share one set of link
//! operations, and these tests hold them to the same result: a tree
//! built through the API, serialized and parsed back, must match slot
//! for slot — kind, `NameId`, every link and the attribute order. A
//! table of malformed inputs pins each error's offset and message, and
//! a document whose names all land in one slot of the parser's name
//! cache pins the interning order.

use xvi_datagen::Dataset;
use xvi_xml::{serialize, Document, NameId, NodeId, NodeKind};

/// xorshift64, so every tree repeats exactly for a seed.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1)
    }

    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn pick<'a>(&mut self, from: &[&'a str]) -> &'a str {
        from[self.below(from.len())]
    }
}

/// Asserts `a` and `b` agree on every arena slot: kind (names compared
/// by `NameId`), the five links and the attribute chain, and that each
/// `NameId` resolves to the same name in both.
fn assert_same_arena(a: &Document, b: &Document, what: &str) {
    assert_eq!(a.arena_size(), b.arena_size(), "{what}: arena size");
    for i in 0..a.arena_size() {
        let id = NodeId::from_index(i);
        assert_eq!(a.kind(id), b.kind(id), "{what}: kind of {i}");
        if let NodeKind::Element(n) | NodeKind::Attribute { name: n, .. } = a.kind(id) {
            assert_eq!(a.resolve(*n), b.resolve(*n), "{what}: name of {i}");
        }
        assert_eq!(a.parent(id), b.parent(id), "{what}: parent of {i}");
        assert_eq!(
            a.first_child(id),
            b.first_child(id),
            "{what}: first child of {i}"
        );
        assert_eq!(
            a.last_child(id),
            b.last_child(id),
            "{what}: last child of {i}"
        );
        assert_eq!(
            a.next_sibling(id),
            b.next_sibling(id),
            "{what}: next of {i}"
        );
        assert_eq!(
            a.prev_sibling(id),
            b.prev_sibling(id),
            "{what}: prev of {i}"
        );
        assert!(
            a.attributes(id).eq(b.attributes(id)),
            "{what}: attributes of {i}"
        );
    }
}

/// Serializes `doc`, parses the text back and asserts the two match
/// slot for slot and re-serialize to the same bytes.
fn assert_reparses_slot_for_slot(doc: &Document, what: &str) {
    let text = serialize::to_string(doc);
    let parsed = Document::parse(&text).unwrap_or_else(|e| panic!("{what}: {e}\n{text}"));
    assert_same_arena(doc, &parsed, what);
    assert_eq!(serialize::to_string(&parsed), text, "{what}: serialization");
}

const NAMES: &[&str] = &["a", "b", "item", "name", "x:y", "_u", "long-name.1", "ελ"];
const TEXT: &[&str] = &[
    "a", "Z", "0", " ", "&", "<", ">", "\"", "'", "é", "你", "\n", "\t", "]]>",
];
/// Comment and PI bodies: no `-` or `?`, so no `--`, `-->` or `?>`.
const BODY: &[&str] = &["c", " ", "<", "&", ">", "\"", "é", "x y"];

fn random_string(rng: &mut Rng, parts: &[&str], max: usize) -> String {
    (0..1 + rng.below(max)).map(|_| rng.pick(parts)).collect()
}

/// Builds a random tree through the public construction API, in
/// document order — each element, then its attributes, then its
/// children — which is the order the parser allocates slots in. Text
/// is never empty and never next to other text, PI data has no outer
/// whitespace, and the markup in the document prolog is only comments
/// and PIs: the forms a parse reproduces exactly.
fn random_document(seed: u64) -> Document {
    let mut rng = Rng::new(seed);
    let mut doc = Document::new();
    let top = doc.document_node();
    if rng.below(2) == 0 {
        let c = doc.create_comment(&random_string(&mut rng, BODY, 4));
        doc.append_child(top, c);
    }
    if rng.below(2) == 0 {
        let pi = doc.create_pi("style", "href=\"x\"");
        doc.append_child(top, pi);
    }
    let root = doc.append_element(top, rng.pick(NAMES));
    // Open elements with the number of children each still gets.
    let mut open = vec![(root, 1 + rng.below(6))];
    let mut last_was_text = false;
    while let Some((parent, left)) = open.pop() {
        if left == 0 {
            last_was_text = false;
            continue;
        }
        open.push((parent, left - 1));
        match rng.below(10) {
            0..=3 if open.len() < 8 => {
                let e = doc.append_element(parent, rng.pick(NAMES));
                for _ in 0..rng.below(4) {
                    let value = if rng.below(4) == 0 {
                        String::new()
                    } else {
                        random_string(&mut rng, TEXT, 5)
                    };
                    // A name set twice keeps its first position.
                    doc.set_attribute(e, rng.pick(NAMES), &value);
                }
                open.push((e, rng.below(5)));
                last_was_text = false;
            }
            4..=6 if !last_was_text => {
                doc.append_text(parent, &random_string(&mut rng, TEXT, 6));
                last_was_text = true;
            }
            7 => {
                let c = doc.create_comment(&random_string(&mut rng, BODY, 4));
                doc.append_child(parent, c);
                last_was_text = false;
            }
            8 => {
                let data = match rng.below(3) {
                    0 => String::new(),
                    _ => format!("d{}", random_string(&mut rng, BODY, 3)).replace(' ', "_"),
                };
                let pi = doc.create_pi(rng.pick(&["pi", "t-1", "x.y"]), &data);
                doc.append_child(parent, pi);
                last_was_text = false;
            }
            _ => {}
        }
    }
    if rng.below(2) == 0 {
        let c = doc.create_comment("tail");
        doc.append_child(top, c);
    }
    doc
}

#[test]
fn api_built_trees_reparse_slot_for_slot() {
    let mut nodes = 0;
    for seed in 0..300 {
        let doc = random_document(seed);
        nodes += doc.arena_size();
        assert_reparses_slot_for_slot(&doc, &format!("seed {seed}"));
    }
    assert!(nodes > 3_000, "trees too small to test: {nodes} slots");
}

/// Rebuilds `doc` through the public construction API in arena order.
fn rebuild_through_api(doc: &Document) -> Document {
    let mut out = Document::new();
    for n in doc.descendants(doc.document_node()) {
        let parent = doc.parent(n).expect("a descendant has a parent");
        let copy = match doc.kind(n) {
            NodeKind::Element(name) => {
                let e = out.append_element(parent, doc.resolve(*name));
                for a in doc.attributes(n) {
                    let name = doc.name(a).unwrap();
                    out.set_attribute(e, name, doc.direct_value(a).unwrap());
                }
                e
            }
            NodeKind::Text(t) => out.append_text(parent, t),
            NodeKind::Comment(c) => {
                let c = out.create_comment(c);
                out.append_child(parent, c);
                c
            }
            NodeKind::Pi { target, data } => {
                let pi = out.create_pi(target, data);
                out.append_child(parent, pi);
                pi
            }
            other => panic!("unexpected {other:?} in a parsed document"),
        };
        assert_eq!(copy, n, "the rebuild allocates in arena order");
    }
    out
}

#[test]
fn paper_suite_parses_like_the_construction_api() {
    for ds in Dataset::paper_suite() {
        let what = ds.name();
        let parsed = Document::parse(&ds.generate(3)).unwrap();
        assert!(
            parsed.stats().total_nodes > 100,
            "{what}: too small to test"
        );
        let built = rebuild_through_api(&parsed);
        assert_same_arena(&parsed, &built, &what);
        assert_reparses_slot_for_slot(&built, &what);
    }
}

/// Malformed inputs, mostly from the markup soup of `fuzz.rs` (its
/// fragments behind a few element and attribute openings), with the
/// byte offset and message each error had before parses were staged.
const MALFORMED: &[(&str, usize, &str)] = &[
    (
        "<r x='x1\"><?ra=\"1\"&ab'</r>",
        10,
        "`<` is not allowed in attribute values",
    ),
    (
        "<r x='>#x4z<!--/></r>",
        11,
        "`<` is not allowed in attribute values",
    ),
    (
        "amp-->#0<![CDATA[;#65<!DOCTYPE'#0]]> </a></r>",
        8,
        "CDATA outside the root element",
    ),
    (
        "b<![CDATA[amp<?&</</abab</r>",
        1,
        "CDATA outside the root element",
    ),
    (
        "<r a=\"1\" aab=<![CDATA[",
        13,
        "attribute value must be quoted",
    ),
    (
        "<r a=\"1\"  b=ab<?&<?<![CDATA[&ab&</r>",
        12,
        "attribute value must be quoted",
    ),
    (
        "<r x='a=\"1\" b=&#65<?#x4z;a=\"1\" ></r>",
        15,
        "bad character reference",
    ),
    (
        "<r a=\"1\" >&#65x1>r;</a></r>",
        11,
        "bad character reference",
    ),
    (
        "&#x4z;<!DOCTYPErab</a></r>",
        1,
        "bad hex character reference",
    ),
    (
        "<r><a>&#x4zbb&#x4z#0;</a></r>",
        7,
        "bad hex character reference",
    ),
    ("'<ab</r>", 1, "character data outside the root element"),
    (
        "?>#x4z<bx1]]>",
        6,
        "character data outside the root element",
    ),
    (
        "</a-->/><?<>amp/>#x110000</a></r>",
        6,
        "closing tag `</a-->` with no open element",
    ),
    (" </r>", 5, "closing tag `</r>` with no open element"),
    ("</r>", 4, "closing tag `</r>` with no open element"),
    (
        "<!DOCTYPE</--><?#x110000amp&?> a?>",
        34,
        "document has no root element",
    ),
    (" ", 1, "document has no root element"),
    (
        "<?xml version=\"1.0\"?>",
        21,
        "document has no root element",
    ),
    (
        "<r a=\"1\" a=\"1\"<?#x110000?>'b<!--ab",
        14,
        "duplicate attribute `a`",
    ),
    (
        "<r a=\"1\" a=\"1\"a=\"1\" =#x4za</a></r>",
        14,
        "duplicate attribute `a`",
    ),
    (
        "<a x=\"1\" y='2' x=\"&amp;\"/>",
        24,
        "duplicate attribute `x`",
    ),
    (
        "<r><a>;&r\"=?><!DOCTYPEab;#x4z",
        8,
        "entity reference too long",
    ),
    ("<r><a>&/>x1#65</a></r>", 7, "entity reference too long"),
    (
        "<r>&verylongentityname;</r>",
        4,
        "entity reference too long",
    ),
    ("</ampx1</r>", 7, "expected `>`"),
    ("<r a=\"1\" b]]></r>", 10, "expected `=`"),
    ("<r/ >", 2, "expected `/>`"),
    ("<r/x>", 2, "expected `/>`"),
    ("<r><a>\"#x110000 a aab--><", 25, "expected a name"),
    (
        "<r a=\"1\" <!DOCTYPE-->#65'x1&a=\"1\"b#0 a</\"</r>",
        9,
        "expected a name",
    ),
    ("<r x='; &#x110000;#65;</<", 9, "invalid character code"),
    ("&#x110000;<![CDATA[<!--/></r>", 1, "invalid character code"),
    ("<r>&#55296;</r>", 4, "invalid character code"),
    ("<r>&#xD800;</r>", 4, "invalid character code"),
    (
        "<r><a>?>#x4za=\"1\"</r>",
        21,
        "mismatched closing tag: expected `</a>`, found `</r>`",
    ),
    (
        "<r><a>=ba</r>",
        13,
        "mismatched closing tag: expected `</a>`, found `</r>`",
    ),
    (
        "<r><a></r></a>",
        10,
        "mismatched closing tag: expected `</a>`, found `</r>`",
    ),
    (
        "<r><a>deep</a></b>",
        18,
        "mismatched closing tag: expected `</r>`, found `</b>`",
    ),
    ("<r a=\"1\" /><ampr?>amp</r>", 16, "multiple root elements"),
    ("<r a=\"1\" /><b=--><;<</r>", 13, "multiple root elements"),
    (
        "<r><a>#65a<-->=a=\"1\" <?#x4za=\"1\"",
        11,
        "names cannot start with a digit",
    ),
    (
        "<r a=\"1\" -->]]>arx1\"<![CDATA[b<</r>",
        9,
        "names cannot start with a digit",
    ),
    (
        "<r>'>' a?>?>?>x1",
        16,
        "unexpected end of input: unclosed element",
    ),
    (
        "<r> = a=\"1\">",
        12,
        "unexpected end of input: unclosed element",
    ),
    ("<r><a>&/>;=ab<![CDATA[", 7, "unknown entity `&/>;`"),
    ("<r x='x1ab&='']]>-->;", 11, "unknown entity `&='']]>-->;`"),
    (
        "<r><a>; <!DOCTYPE?>#x4z<![CDATA[#0<? a&</r>",
        43,
        "unterminated CDATA section",
    ),
    (
        "<r><a>;;#x4z<![CDATA[ &-->b<![CDATA[#x4z/><?</a></r>",
        52,
        "unterminated CDATA section",
    ),
    (
        "<r>r-->ab;#0#65 amp<!DOCTYPEab&</r>",
        35,
        "unterminated DOCTYPE",
    ),
    ("<!DOCTYPEamp#x110000</a></r>", 28, "unterminated DOCTYPE"),
    ("<r x='/>?>", 10, "unterminated attribute value"),
    ("<r x='\"-->ax1r\"amp>", 19, "unterminated attribute value"),
    (
        "<r><a>ab #x4z?>=amp#0<!--a=\"1\"ab<</a></r>",
        41,
        "unterminated comment",
    ),
    (
        "<r><a>ab?><!--x1'#0x1=x1;>x1</a></r>",
        36,
        "unterminated comment",
    ),
    ("&</a></r>", 1, "unterminated entity reference"),
    (
        "<r><a>>#x110000&#x4z'</r>",
        16,
        "unterminated entity reference",
    ),
    (
        "<r><a>;<?brrar<amp</a></r>",
        26,
        "unterminated processing instruction",
    ),
    (
        "<r><?ab\"=<<!DOCTYPE",
        19,
        "unterminated processing instruction",
    ),
    ("<r x=''", 7, "unterminated start tag"),
    (
        "<r><a>'#x110000amp']]>b]]>a=\"1\";<rb",
        35,
        "unterminated start tag",
    ),
];

#[test]
fn malformed_inputs_keep_their_offsets_and_messages() {
    for &(input, offset, message) in MALFORMED {
        let e = Document::parse(input).expect_err(input);
        assert_eq!(
            (e.offset, e.message.as_str()),
            (offset, message),
            "{input:?}"
        );
    }
}

/// Thousands of distinct names of one length with the same first and
/// last byte — so every one lands in the same slot of the parser's
/// name cache — used in shuffled orders by start tags, end tags and
/// attributes. Each lookup misses the cache; the ids must still come
/// out in first-occurrence order, as `Document::intern` assigns them.
#[test]
fn names_sharing_a_cache_slot_intern_in_first_occurrence_order() {
    const N: usize = 3_000;
    let element = |i: usize| format!("a{i:04}z");
    let attribute = |i: usize| format!("a{:04}z", N + i);
    let mut rng = Rng::new(7);
    let mut xml = String::from("<r>");
    // Every name in document order: elements, each followed by its
    // attributes.
    let mut names = vec!["r".to_string()];
    let mut order: Vec<usize> = (0..N).collect();
    for round in 0..3 {
        for i in (1..N).rev() {
            order.swap(i, rng.below(i + 1));
        }
        for &i in &order {
            let (e, a) = (element(i), attribute(i));
            xml.push_str(&format!("<{e} {a}=\"{round}\" r=\"\">t</{e}>"));
            names.extend([e, a, "r".to_string()]);
        }
    }
    xml.push_str("</r>");
    let doc = Document::parse(&xml).unwrap();

    // Interning the names in that order, without the parser, gives
    // the ids the parse must have given each node.
    let mut reference = Document::new();
    let want: Vec<NameId> = names.iter().map(|n| reference.intern(n)).collect();
    let got: Vec<NameId> = doc
        .descendants(doc.document_node())
        .flat_map(|n| std::iter::once(n).chain(doc.attributes(n)))
        .filter_map(|m| match doc.kind(m) {
            NodeKind::Element(id) | NodeKind::Attribute { name: id, .. } => Some(*id),
            _ => None,
        })
        .collect();
    assert_eq!(got, want);
    for name in &names {
        let id = doc.lookup_name(name).expect("interned");
        assert_eq!(doc.resolve(id), name);
        assert_eq!(reference.lookup_name(name), Some(id));
    }

    // End tags are checked against the open element's own name, not
    // against whatever shares its cache slot.
    let e = Document::parse("<a0001z><a0002z></a0001z></a0002z>").unwrap_err();
    assert_eq!(
        e.message,
        "mismatched closing tag: expected `</a0002z>`, found `</a0001z>`"
    );
}
