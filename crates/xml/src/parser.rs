//! A hand-written, iterative XML parser ("shredder").
//!
//! Supports the XML subset the paper's datasets need: elements,
//! attributes (single or double quoted), character data, CDATA
//! sections, comments, processing instructions, the XML declaration, a
//! (skipped) DOCTYPE, and the predefined entity and character
//! references. Namespaces are treated lexically (`a:b` is just a name).
//!
//! Design choices relevant to the indices:
//! * adjacent character data (text, CDATA, entity expansions) merges
//!   into one text node — the XDM normal form the combination
//!   functions assume;
//! * attribute values are entity-decoded at parse time, so indexed
//!   values are the *data model* values, not raw markup;
//! * parsing is iterative (explicit stack), so document depth is
//!   bounded by memory, not the call stack.
//!
//! The shredder writes nodes the way the public construction API does
//! — both call one set of link operations — but into plain staged
//! pages that no clone can see yet, so a link write pays no
//! copy-on-write check. The finished arena is sealed into the
//! document's shared pages once, without moving a node. Names are
//! interned through a small direct-mapped cache of ids in front of the
//! keyed name table (a hit is confirmed by comparing bytes), and an end
//! tag is matched against the open element's name as it appeared in
//! the input, kept on the parser's stack.

use crate::doc::{Document, Staged};
use crate::error::ParseError;
use crate::node::{NodeId, NodeKind};

/// Parses XML text into a [`Document`], which keeps a copy of `input`
/// until its first write ([`Document::source`]).
pub fn parse(input: &str) -> Result<Document, ParseError> {
    Parser::new(input).run()
}

struct Parser<'a> {
    /// The input (minus any byte-order mark). Every slice taken from
    /// it starts and ends next to an ASCII delimiter, so slicing never
    /// splits a character and needs no UTF-8 re-validation.
    input: &'a str,
    bytes: &'a [u8],
    pos: usize,
    doc: Staged,
    /// Open element stack with each element's name as it appears in
    /// the input; the document node is the base.
    stack: Vec<(NodeId, &'a str)>,
    /// Pending character data, merged until the next non-text event
    /// and then moved (not copied) into the text node.
    text: String,
    seen_root: bool,
}

impl<'a> Parser<'a> {
    fn new(input: &'a str) -> Parser<'a> {
        let input = input.strip_prefix('\u{feff}').unwrap_or(input);
        Parser {
            input,
            bytes: input.as_bytes(),
            pos: 0,
            stack: Vec::new(),
            text: String::new(),
            doc: Staged::new(),
            seen_root: false,
        }
    }

    fn err<T>(&self, msg: impl Into<String>) -> Result<T, ParseError> {
        Err(ParseError::new(self.pos, msg))
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn starts_with(&self, s: &str) -> bool {
        self.bytes[self.pos..].starts_with(s.as_bytes())
    }

    fn bump(&mut self, n: usize) {
        self.pos += n;
    }

    /// Advances to the next byte matching `stop` (or the end of input)
    /// and returns the input passed over.
    fn take_until(&mut self, stop: impl Fn(u8) -> bool) -> &'a str {
        let start = self.pos;
        self.pos = self.bytes[start..]
            .iter()
            .position(|&b| stop(b))
            .map_or(self.bytes.len(), |n| start + n);
        &self.input[start..self.pos]
    }

    /// Advances to the next occurrence of `end` and returns the input
    /// passed over, or `None` (at end of input) if there is none.
    fn take_until_str(&mut self, end: &str) -> Option<&'a str> {
        let start = self.pos;
        match self.input[start..].find(end) {
            Some(n) => {
                self.pos = start + n;
                Some(&self.input[start..self.pos])
            }
            None => {
                self.pos = self.bytes.len();
                None
            }
        }
    }

    fn expect(&mut self, s: &str) -> Result<(), ParseError> {
        if self.starts_with(s) {
            self.bump(s.len());
            Ok(())
        } else {
            self.err(format!("expected `{s}`"))
        }
    }

    /// The innermost open node: new nodes are appended to it.
    fn parent(&self) -> NodeId {
        self.stack.last().expect("stack never empty").0
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.bump(1);
        }
    }

    fn run(mut self) -> Result<Document, ParseError> {
        // The document node, slot 0, is the base of the stack.
        self.stack.push((NodeId(0), ""));
        while self.pos < self.bytes.len() {
            if self.peek() == Some(b'<') {
                // CDATA merges with surrounding character data, so it
                // must not flush the pending text.
                if self.starts_with("<![CDATA[") {
                    self.cdata()?;
                } else {
                    self.flush_text()?;
                    self.markup()?;
                }
            } else {
                self.character_data()?;
            }
        }
        self.flush_text()?;
        if self.stack.len() != 1 {
            return self.err("unexpected end of input: unclosed element");
        }
        if !self.seen_root {
            return self.err("document has no root element");
        }
        Ok(self.doc.finish(self.input))
    }

    /// Accumulates character data up to the next `<`, decoding
    /// references.
    fn character_data(&mut self) -> Result<(), ParseError> {
        while let Some(b) = self.peek() {
            match b {
                b'<' => break,
                b'&' => {
                    let c = self.reference()?;
                    self.text.push(c);
                }
                _ => {
                    let chunk = self.take_until(|b| b == b'<' || b == b'&');
                    self.text.push_str(chunk);
                }
            }
        }
        Ok(())
    }

    /// Emits accumulated character data as a text node (if any).
    fn flush_text(&mut self) -> Result<(), ParseError> {
        if self.text.is_empty() {
            return Ok(());
        }
        let parent = self.parent();
        if self.stack.len() == 1 {
            // Text directly under the document node: only whitespace is
            // well-formed there.
            if self.text.trim().is_empty() {
                self.text.clear();
                return Ok(());
            }
            return self.err("character data outside the root element");
        }
        let content = std::mem::take(&mut self.text);
        self.doc.append(parent, NodeKind::Text(content));
        Ok(())
    }

    fn markup(&mut self) -> Result<(), ParseError> {
        if self.starts_with("<!--") {
            self.comment()
        } else if self.starts_with("<!DOCTYPE") {
            self.doctype()
        } else if self.starts_with("<?") {
            self.pi()
        } else if self.starts_with("</") {
            self.end_tag()
        } else {
            self.start_tag()
        }
    }

    fn comment(&mut self) -> Result<(), ParseError> {
        self.expect("<!--")?;
        let Some(content) = self.take_until_str("-->") else {
            return self.err("unterminated comment");
        };
        self.bump(3);
        let parent = self.parent();
        self.doc
            .append(parent, NodeKind::Comment(content.to_owned()));
        Ok(())
    }

    fn cdata(&mut self) -> Result<(), ParseError> {
        if self.stack.len() == 1 {
            return self.err("CDATA outside the root element");
        }
        self.expect("<![CDATA[")?;
        let Some(content) = self.take_until_str("]]>") else {
            return self.err("unterminated CDATA section");
        };
        self.text.push_str(content);
        self.bump(3);
        Ok(())
    }

    /// Skips a DOCTYPE declaration, including an internal subset.
    fn doctype(&mut self) -> Result<(), ParseError> {
        self.expect("<!DOCTYPE")?;
        let mut depth = 1usize;
        while depth > 0 {
            match self.peek() {
                None => return self.err("unterminated DOCTYPE"),
                Some(b'<') => depth += 1,
                Some(b'>') => depth -= 1,
                _ => {}
            }
            self.bump(1);
        }
        Ok(())
    }

    fn pi(&mut self) -> Result<(), ParseError> {
        self.expect("<?")?;
        let target = self.name()?;
        self.skip_ws();
        let Some(data) = self.take_until_str("?>") else {
            return self.err("unterminated processing instruction");
        };
        self.bump(2);
        // The XML declaration is not a node in the data model.
        if !target.eq_ignore_ascii_case("xml") {
            let parent = self.parent();
            let pi = NodeKind::Pi {
                target: target.to_owned(),
                data: data.trim_end().to_owned(),
            };
            self.doc.append(parent, pi);
        }
        Ok(())
    }

    fn start_tag(&mut self) -> Result<(), ParseError> {
        self.expect("<")?;
        let name = self.name()?;
        let parent = self.parent();
        if self.stack.len() == 1 {
            if self.seen_root {
                return self.err("multiple root elements");
            }
            self.seen_root = true;
        }
        let element = self.doc.append_element(parent, name);

        loop {
            self.skip_ws();
            match self.peek() {
                None => return self.err("unterminated start tag"),
                Some(b'>') => {
                    self.bump(1);
                    self.stack.push((element, name));
                    return Ok(());
                }
                Some(b'/') => {
                    self.expect("/>")?;
                    return Ok(());
                }
                _ => {
                    let attr_name = self.name()?;
                    self.skip_ws();
                    self.expect("=")?;
                    self.skip_ws();
                    let value = self.attr_value()?;
                    if self.doc.add_attribute(element, attr_name, value).is_err() {
                        return self.err(format!("duplicate attribute `{attr_name}`"));
                    }
                }
            }
        }
    }

    fn end_tag(&mut self) -> Result<(), ParseError> {
        self.expect("</")?;
        let name = self.name()?;
        self.skip_ws();
        self.expect(">")?;
        if self.stack.len() <= 1 {
            return self.err(format!("closing tag `</{name}>` with no open element"));
        }
        let (_, open_name) = self.stack.pop().expect("checked above");
        if open_name != name {
            return self.err(format!(
                "mismatched closing tag: expected `</{open_name}>`, found `</{name}>`"
            ));
        }
        Ok(())
    }

    fn name(&mut self) -> Result<&'a str, ParseError> {
        let start = self.pos;
        let name = self.take_until(|b| {
            !(b.is_ascii_alphanumeric() || matches!(b, b'_' | b'-' | b'.' | b':') || b >= 0x80)
        });
        if name.is_empty() {
            return self.err("expected a name");
        }
        let first = self.bytes[start];
        if first.is_ascii_digit() || first == b'-' || first == b'.' {
            return Err(ParseError::new(start, "names cannot start with a digit"));
        }
        Ok(name)
    }

    fn attr_value(&mut self) -> Result<String, ParseError> {
        let quote = match self.peek() {
            Some(q @ (b'"' | b'\'')) => q,
            _ => return self.err("attribute value must be quoted"),
        };
        self.bump(1);
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return self.err("unterminated attribute value"),
                Some(q) if q == quote => {
                    self.bump(1);
                    return Ok(out);
                }
                Some(b'<') => return self.err("`<` is not allowed in attribute values"),
                Some(b'&') => out.push(self.reference()?),
                Some(_) => out.push_str(self.take_until(|b| b == quote || b == b'&' || b == b'<')),
            }
        }
    }

    /// Decodes `&name;`, `&#ddd;` or `&#xhh;`.
    fn reference(&mut self) -> Result<char, ParseError> {
        self.expect("&")?;
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b == b';' {
                break;
            }
            if self.pos - start > 12 {
                return Err(ParseError::new(start, "entity reference too long"));
            }
            self.bump(1);
        }
        if self.peek() != Some(b';') {
            return Err(ParseError::new(start, "unterminated entity reference"));
        }
        let body = &self.input[start..self.pos];
        self.bump(1); // the `;`
        let c = match body {
            "amp" => '&',
            "lt" => '<',
            "gt" => '>',
            "apos" => '\'',
            "quot" => '"',
            _ if body.starts_with("#x") || body.starts_with("#X") => {
                let code = u32::from_str_radix(&body[2..], 16)
                    .map_err(|_| ParseError::new(start, "bad hex character reference"))?;
                char::from_u32(code)
                    .ok_or_else(|| ParseError::new(start, "invalid character code"))?
            }
            _ if body.starts_with('#') => {
                let code: u32 = body[1..]
                    .parse()
                    .map_err(|_| ParseError::new(start, "bad character reference"))?;
                char::from_u32(code)
                    .ok_or_else(|| ParseError::new(start, "invalid character code"))?
            }
            other => {
                return Err(ParseError::new(
                    start,
                    format!("unknown entity `&{other};`"),
                ))
            }
        };
        Ok(c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::NodeKind;

    #[test]
    fn minimal_document() {
        let d = parse("<a/>").unwrap();
        let root = d.root_element().unwrap();
        assert_eq!(d.name(root), Some("a"));
        assert_eq!(d.children(root).count(), 0);
    }

    #[test]
    fn nested_elements_and_text() {
        let d = parse("<a><b>hello</b><c>world</c></a>").unwrap();
        let a = d.root_element().unwrap();
        assert_eq!(d.string_value(a), "helloworld");
        let kids: Vec<_> = d.children(a).collect();
        assert_eq!(kids.len(), 2);
        assert_eq!(d.name(kids[0]), Some("b"));
        assert_eq!(d.string_value(kids[1]), "world");
    }

    #[test]
    fn mixed_content_from_the_paper() {
        let d = parse("<age> <decades>4</decades>2<years/></age>").unwrap();
        let age = d.root_element().unwrap();
        assert_eq!(d.string_value(age), " 42");
        // " ", <decades>, "2", <years/> — whitespace is significant.
        assert_eq!(d.children(age).count(), 4);
    }

    #[test]
    fn attributes_parse_and_decode() {
        let d = parse(r#"<e a="1" b='two' c="a&amp;b &lt;x&gt;"/>"#).unwrap();
        let e = d.root_element().unwrap();
        assert_eq!(d.attribute_value(e, "a"), Some("1"));
        assert_eq!(d.attribute_value(e, "b"), Some("two"));
        assert_eq!(d.attribute_value(e, "c"), Some("a&b <x>"));
        assert_eq!(d.attributes(e).count(), 3);
    }

    #[test]
    fn entity_and_character_references_in_text() {
        let d = parse("<t>&lt;tag&gt; &amp; &quot;q&quot; &apos;a&apos; &#65;&#x42;</t>").unwrap();
        assert_eq!(
            d.string_value(d.root_element().unwrap()),
            "<tag> & \"q\" 'a' AB"
        );
    }

    #[test]
    fn cdata_merges_with_text() {
        let d = parse("<t>one<![CDATA[<two> & ]]>three</t>").unwrap();
        let t = d.root_element().unwrap();
        assert_eq!(d.string_value(t), "one<two> & three");
        // One merged text node, not three.
        assert_eq!(d.children(t).count(), 1);
    }

    #[test]
    fn comments_and_pis_become_nodes() {
        let d = parse("<t><!-- note --><?php echo ?>x</t>").unwrap();
        let t = d.root_element().unwrap();
        let kids: Vec<_> = d.children(t).collect();
        assert_eq!(kids.len(), 3);
        assert!(matches!(d.kind(kids[0]), NodeKind::Comment(c) if c == " note "));
        assert!(
            matches!(d.kind(kids[1]), NodeKind::Pi { target, data } if target == "php" && data == "echo")
        );
        // Comment/PI do not pollute the element string value.
        assert_eq!(d.string_value(t), "x");
    }

    #[test]
    fn prolog_and_doctype_are_skipped() {
        let d = parse(
            "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n<!DOCTYPE r [ <!ELEMENT r (#PCDATA)> ]>\n<r>ok</r>",
        )
        .unwrap();
        assert_eq!(d.string_value(d.root_element().unwrap()), "ok");
    }

    #[test]
    fn bom_is_tolerated() {
        let d = parse("\u{feff}<r/>").unwrap();
        assert!(d.root_element().is_some());
    }

    #[test]
    fn unicode_content_roundtrips() {
        let d = parse("<t>καλημέρα — 你好 — 🚀</t>").unwrap();
        assert_eq!(
            d.string_value(d.root_element().unwrap()),
            "καλημέρα — 你好 — 🚀"
        );
    }

    #[test]
    fn deeply_nested_does_not_overflow_stack() {
        let depth = 100_000;
        let mut s = String::new();
        for _ in 0..depth {
            s.push_str("<d>");
        }
        s.push('x');
        for _ in 0..depth {
            s.push_str("</d>");
        }
        let d = parse(&s).unwrap();
        assert_eq!(d.stats().element_nodes, depth);
    }

    // ----- error cases ------------------------------------------------------

    #[test]
    fn rejects_mismatched_tags() {
        let e = parse("<a><b></a></b>").unwrap_err();
        assert!(e.message.contains("mismatched closing tag"), "{e}");
    }

    #[test]
    fn rejects_unclosed_element() {
        assert!(parse("<a><b>text").is_err());
    }

    #[test]
    fn rejects_multiple_roots() {
        let e = parse("<a/><b/>").unwrap_err();
        assert!(e.message.contains("multiple root"), "{e}");
    }

    #[test]
    fn rejects_text_outside_root() {
        assert!(parse("junk<a/>").is_err());
        assert!(parse("<a/>junk").is_err());
        // Whitespace outside the root is fine.
        assert!(parse("  <a/>  \n").is_ok());
    }

    #[test]
    fn rejects_unknown_entity() {
        let e = parse("<a>&nbsp;</a>").unwrap_err();
        assert!(e.message.contains("unknown entity"), "{e}");
    }

    #[test]
    fn rejects_duplicate_attributes() {
        let e = parse(r#"<a x="1" x="2"/>"#).unwrap_err();
        assert!(e.message.contains("duplicate attribute"), "{e}");
    }

    /// Duplicates are detected by name once the value, entities and
    /// all, has been decoded; the error points just past that value.
    #[test]
    fn rejects_duplicate_attribute_after_entity_decoding() {
        let input = r#"<a x="&amp;" y="&#49;" x="&lt;&#x42;"/>"#;
        let e = parse(input).unwrap_err();
        assert_eq!(e.message, "duplicate attribute `x`");
        assert_eq!(e.offset, input.len() - "/>".len());
        // Equal decoded values under different names are fine.
        let d = parse(r#"<a x="&#65;" y="A"/>"#).unwrap();
        let a = d.root_element().unwrap();
        assert_eq!(d.attribute_value(a, "x"), d.attribute_value(a, "y"));
    }

    #[test]
    fn elements_with_many_attributes_keep_order_and_reject_duplicates() {
        let attrs: String = (0..12).map(|i| format!(" a{i}=\"v{i}\"")).collect();
        let d = parse(&format!("<e{attrs}><f{attrs}/></e>")).unwrap();
        let e = d.root_element().unwrap();
        for el in [e, d.first_child(e).unwrap()] {
            let got: Vec<(&str, &str)> = d
                .attributes(el)
                .map(|a| (d.name(a).unwrap(), d.direct_value(a).unwrap()))
                .collect();
            let want: Vec<(String, String)> = (0..12)
                .map(|i| (format!("a{i}"), format!("v{i}")))
                .collect();
            let want: Vec<(&str, &str)> =
                want.iter().map(|(n, v)| (n.as_str(), v.as_str())).collect();
            assert_eq!(got, want);
            assert!(d.attributes(el).all(|a| d.parent(a) == Some(el)));
        }
        for dup in [0, 7, 8, 11] {
            let input = format!("<e{attrs} a{dup}='again'/>");
            let e = parse(&input).unwrap_err();
            assert_eq!(e.message, format!("duplicate attribute `a{dup}`"));
            assert_eq!(e.offset, input.len() - "/>".len());
        }
    }

    #[test]
    fn rejects_bad_attribute_syntax() {
        assert!(parse("<a x=unquoted/>").is_err());
        assert!(parse(r#"<a x="unterminated/>"#).is_err());
        assert!(parse(r#"<a x="a<b"/>"#).is_err());
    }

    #[test]
    fn rejects_empty_document() {
        assert!(parse("").is_err());
        assert!(parse("   ").is_err());
        assert!(parse("<!-- only a comment -->").is_err());
    }

    #[test]
    fn rejects_unterminated_constructs() {
        assert!(parse("<a><!-- no end").is_err());
        assert!(parse("<a><![CDATA[ no end").is_err());
        assert!(parse("<a><?pi no end").is_err());
        assert!(parse("<!DOCTYPE unfinished").is_err());
    }

    #[test]
    fn error_offsets_point_into_input() {
        let input = "<root>ok</root";
        let e = parse(input).unwrap_err();
        assert!(e.offset <= input.len());
        assert!(e.to_string().contains("byte"));
    }
}
