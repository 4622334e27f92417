//! A small well-formed-XML parser.
//!
//! Supports elements, attributes (single- or double-quoted), text
//! content with entity decoding (`&amp; &lt; &gt; &quot; &apos;` and
//! numeric character references), comments, CDATA sections, processing
//! instructions / XML declarations (skipped), and self-closing tags.
//! It does not process DTDs or namespaces (prefixes are kept verbatim),
//! which matches what the Books-dataset XML feeds need.

use crate::error::{ParseError, MAX_NESTING};

/// An XML element node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XmlElement {
    /// Tag name (with any namespace prefix kept as-is).
    pub name: String,
    /// Attributes in document order.
    pub attributes: Vec<(String, String)>,
    /// Child nodes in document order.
    pub children: Vec<XmlNode>,
}

/// A node in the parsed tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum XmlNode {
    /// Child element.
    Element(XmlElement),
    /// Text run (entity-decoded, whitespace preserved).
    Text(String),
}

impl XmlElement {
    /// Attribute lookup.
    pub fn attribute(&self, name: &str) -> Option<&str> {
        self.attributes
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// First child element with the given tag name.
    pub fn child(&self, name: &str) -> Option<&XmlElement> {
        self.children.iter().find_map(|node| match node {
            XmlNode::Element(e) if e.name == name => Some(e),
            _ => None,
        })
    }

    /// All child elements.
    pub fn child_elements(&self) -> Vec<&XmlElement> {
        self.children
            .iter()
            .filter_map(|node| match node {
                XmlNode::Element(e) => Some(e),
                _ => None,
            })
            .collect()
    }

    /// Concatenated trimmed text content of the element (direct text
    /// children only).
    pub fn text(&self) -> String {
        let mut out = String::new();
        for node in &self.children {
            if let XmlNode::Text(t) = node {
                out.push_str(t);
            }
        }
        out.trim().to_string()
    }

    /// Number of descendant elements (excluding self).
    pub fn descendant_count(&self) -> usize {
        self.child_elements()
            .iter()
            .map(|c| 1 + c.descendant_count())
            .sum()
    }
}

/// Parses an XML document, returning the root element.
pub fn parse(input: &str) -> Result<XmlElement, ParseError> {
    let mut parser = Parser {
        input,
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    parser.skip_misc()?;
    let root = parser.parse_element()?;
    parser.skip_misc()?;
    if parser.pos != parser.bytes.len() {
        return Err(parser.error("trailing content after root element"));
    }
    Ok(root)
}

/// Serializes an element tree back to XML text.
pub fn to_string(element: &XmlElement) -> String {
    let mut out = String::new();
    write_element(element, &mut out);
    out
}

fn write_element(element: &XmlElement, out: &mut String) {
    out.push('<');
    out.push_str(&element.name);
    for (k, v) in &element.attributes {
        out.push(' ');
        out.push_str(k);
        out.push_str("=\"");
        escape_into(v, out);
        out.push('"');
    }
    if element.children.is_empty() {
        out.push_str("/>");
        return;
    }
    out.push('>');
    for node in &element.children {
        match node {
            XmlNode::Element(e) => write_element(e, out),
            XmlNode::Text(t) => escape_into(t, out),
        }
    }
    out.push_str("</");
    out.push_str(&element.name);
    out.push('>');
}

fn escape_into(text: &str, out: &mut String) {
    for c in text.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            '\'' => out.push_str("&apos;"),
            c => out.push(c),
        }
    }
}

struct Parser<'a> {
    input: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Elements open at the cursor.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn error(&self, message: impl Into<String>) -> ParseError {
        ParseError::at("xml", self.input, self.pos, message)
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    /// Remaining input from the cursor. The scanning invariants keep
    /// `pos` on a char boundary; if a bug ever violated them this
    /// degrades to `""` — the caller reports a parse error instead of
    /// the parser panicking on adversarial input.
    fn rest(&self) -> &'a str {
        self.input.get(self.pos..).unwrap_or("")
    }

    /// Checked `input[start..end]`, degrading to `""` like [`Self::rest`].
    fn slice(&self, start: usize, end: usize) -> &'a str {
        self.input.get(start..end).unwrap_or("")
    }

    fn starts_with(&self, prefix: &str) -> bool {
        self.rest().starts_with(prefix)
    }

    fn skip_whitespace(&mut self) {
        while matches!(
            self.peek(),
            Some(b' ') | Some(b'\t') | Some(b'\n') | Some(b'\r')
        ) {
            self.pos += 1;
        }
    }

    /// Skips whitespace, comments, processing instructions, XML
    /// declarations and DOCTYPE between markup.
    fn skip_misc(&mut self) -> Result<(), ParseError> {
        loop {
            self.skip_whitespace();
            if self.starts_with("<!--") {
                self.skip_comment()?;
            } else if self.starts_with("<?") {
                self.skip_until("?>")?;
            } else if self.starts_with("<!DOCTYPE") {
                self.skip_until(">")?;
            } else {
                return Ok(());
            }
        }
    }

    fn skip_comment(&mut self) -> Result<(), ParseError> {
        self.pos += 4; // "<!--"
        match self.rest().find("-->") {
            Some(idx) => {
                self.pos += idx + 3;
                Ok(())
            }
            None => Err(self.error("unterminated comment")),
        }
    }

    fn skip_until(&mut self, terminator: &str) -> Result<(), ParseError> {
        match self.rest().find(terminator) {
            Some(idx) => {
                self.pos += idx + terminator.len();
                Ok(())
            }
            None => Err(self.error(format!("expected '{terminator}'"))),
        }
    }

    fn parse_name(&mut self) -> Result<String, ParseError> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            let c = b as char;
            if c.is_ascii_alphanumeric() || matches!(c, '_' | '-' | '.' | ':') {
                self.pos += 1;
            } else if b >= 0x80 {
                match self.input.get(self.pos..).and_then(|s| s.chars().next()) {
                    Some(c) => self.pos += c.len_utf8(),
                    None => break,
                }
            } else {
                break;
            }
        }
        if self.pos == start {
            return Err(self.error("expected a name"));
        }
        Ok(self.slice(start, self.pos).to_string())
    }

    /// Parses one element a level deeper, refusing to go past
    /// [`MAX_NESTING`].
    fn parse_element(&mut self) -> Result<XmlElement, ParseError> {
        if self.depth >= MAX_NESTING {
            return Err(self.error(format!("nesting deeper than {MAX_NESTING} levels")));
        }
        self.depth += 1;
        let element = self.parse_element_at_depth();
        self.depth -= 1;
        element
    }

    fn parse_element_at_depth(&mut self) -> Result<XmlElement, ParseError> {
        if self.peek() != Some(b'<') {
            return Err(self.error("expected '<'"));
        }
        self.pos += 1;
        let name = self.parse_name()?;
        let mut attributes = Vec::new();
        loop {
            self.skip_whitespace();
            match self.peek() {
                Some(b'/') => {
                    self.pos += 1;
                    if self.peek() != Some(b'>') {
                        return Err(self.error("expected '>' after '/'"));
                    }
                    self.pos += 1;
                    return Ok(XmlElement {
                        name,
                        attributes,
                        children: Vec::new(),
                    });
                }
                Some(b'>') => {
                    self.pos += 1;
                    break;
                }
                Some(_) => {
                    let attr_name = self.parse_name()?;
                    self.skip_whitespace();
                    if self.peek() != Some(b'=') {
                        return Err(self.error("expected '=' in attribute"));
                    }
                    self.pos += 1;
                    self.skip_whitespace();
                    let quote = match self.peek() {
                        Some(q @ (b'"' | b'\'')) => q,
                        _ => return Err(self.error("expected quoted attribute value")),
                    };
                    self.pos += 1;
                    let start = self.pos;
                    while let Some(b) = self.peek() {
                        if b == quote {
                            break;
                        }
                        self.pos += 1;
                    }
                    if self.peek() != Some(quote) {
                        return Err(self.error("unterminated attribute value"));
                    }
                    let raw = &self.input[start..self.pos];
                    self.pos += 1;
                    attributes.push((attr_name, decode_entities(raw, self.input, start)?));
                }
                None => return Err(self.error("unexpected end of input in tag")),
            }
        }

        // Children until the matching close tag.
        let mut children = Vec::new();
        loop {
            if self.starts_with("</") {
                self.pos += 2;
                let close = self.parse_name()?;
                if close != name {
                    return Err(self.error(format!(
                        "mismatched close tag: expected </{name}>, found </{close}>"
                    )));
                }
                self.skip_whitespace();
                if self.peek() != Some(b'>') {
                    return Err(self.error("expected '>' in close tag"));
                }
                self.pos += 1;
                return Ok(XmlElement {
                    name,
                    attributes,
                    children,
                });
            } else if self.starts_with("<!--") {
                self.skip_comment()?;
            } else if self.starts_with("<![CDATA[") {
                self.pos += 9;
                match self.rest().find("]]>") {
                    Some(idx) => {
                        children.push(XmlNode::Text(
                            self.slice(self.pos, self.pos + idx).to_string(),
                        ));
                        self.pos += idx + 3;
                    }
                    None => return Err(self.error("unterminated CDATA section")),
                }
            } else if self.starts_with("<?") {
                self.skip_until("?>")?;
            } else if self.peek() == Some(b'<') {
                children.push(XmlNode::Element(self.parse_element()?));
            } else if self.peek().is_some() {
                let start = self.pos;
                while let Some(b) = self.peek() {
                    if b == b'<' {
                        break;
                    }
                    self.pos += 1;
                }
                let raw = &self.input[start..self.pos];
                let text = decode_entities(raw, self.input, start)?;
                if !text.is_empty() {
                    children.push(XmlNode::Text(text));
                }
            } else {
                return Err(self.error(format!("unexpected end of input inside <{name}>")));
            }
        }
    }
}

/// Decodes XML entities in `raw`; `doc`/`base` locate errors in the
/// original input.
fn decode_entities(raw: &str, doc: &str, base: usize) -> Result<String, ParseError> {
    if !raw.contains('&') {
        return Ok(raw.to_string());
    }
    let mut out = String::with_capacity(raw.len());
    let mut rest = raw;
    let mut consumed = 0usize;
    while let Some(idx) = rest.find('&') {
        out.push_str(&rest[..idx]);
        let after = &rest[idx + 1..];
        let Some(end) = after.find(';') else {
            return Err(ParseError::at(
                "xml",
                doc,
                base + consumed + idx,
                "unterminated entity",
            ));
        };
        let entity = &after[..end];
        match entity {
            "amp" => out.push('&'),
            "lt" => out.push('<'),
            "gt" => out.push('>'),
            "quot" => out.push('"'),
            "apos" => out.push('\''),
            _ if entity.starts_with("#x") || entity.starts_with("#X") => {
                let code =
                    u32::from_str_radix(entity.get(2..).unwrap_or(""), 16).map_err(|_| {
                        ParseError::at("xml", doc, base + consumed + idx, "bad hex char reference")
                    })?;
                out.push(char::from_u32(code).ok_or_else(|| {
                    ParseError::at("xml", doc, base + consumed + idx, "invalid char reference")
                })?);
            }
            _ if entity.starts_with('#') => {
                let code = entity.get(1..).unwrap_or("").parse::<u32>().map_err(|_| {
                    ParseError::at("xml", doc, base + consumed + idx, "bad char reference")
                })?;
                out.push(char::from_u32(code).ok_or_else(|| {
                    ParseError::at("xml", doc, base + consumed + idx, "invalid char reference")
                })?);
            }
            _ => {
                return Err(ParseError::at(
                    "xml",
                    doc,
                    base + consumed + idx,
                    format!("unknown entity '&{entity};'"),
                ))
            }
        }
        consumed += idx + 1 + end + 1;
        rest = after.get(end + 1..).unwrap_or("");
    }
    out.push_str(rest);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_simple_document() {
        let root = parse("<book><title>Dune</title><year>1965</year></book>").unwrap();
        assert_eq!(root.name, "book");
        assert_eq!(root.child("title").unwrap().text(), "Dune");
        assert_eq!(root.child("year").unwrap().text(), "1965");
    }

    #[test]
    fn parses_attributes_in_both_quote_styles() {
        let root = parse(r#"<book id="42" lang='en'/>"#).unwrap();
        assert_eq!(root.attribute("id"), Some("42"));
        assert_eq!(root.attribute("lang"), Some("en"));
        assert_eq!(root.attribute("missing"), None);
        assert!(root.children.is_empty());
    }

    #[test]
    fn handles_declaration_comments_and_doctype() {
        let doc =
            "<?xml version=\"1.0\"?>\n<!DOCTYPE books>\n<!-- catalog -->\n<books><book/></books>";
        let root = parse(doc).unwrap();
        assert_eq!(root.name, "books");
        assert_eq!(root.child_elements().len(), 1);
    }

    #[test]
    fn comments_inside_elements_are_skipped() {
        let root = parse("<a>x<!-- hidden -->y</a>").unwrap();
        assert_eq!(root.text(), "xy");
    }

    #[test]
    fn decodes_entities() {
        let root = parse("<t a=\"&amp;&lt;\">&gt;&quot;&apos;&#65;&#x42;</t>").unwrap();
        assert_eq!(root.attribute("a"), Some("&<"));
        assert_eq!(root.text(), ">\"'AB");
    }

    #[test]
    fn rejects_unknown_entities() {
        assert!(parse("<t>&nope;</t>").is_err());
    }

    #[test]
    fn cdata_is_verbatim() {
        let root = parse("<t><![CDATA[1 < 2 && x]]></t>").unwrap();
        assert_eq!(root.text(), "1 < 2 && x");
    }

    #[test]
    fn mismatched_tags_are_rejected() {
        let err = parse("<a><b></a></b>").unwrap_err();
        assert!(err.message.contains("mismatched"));
    }

    #[test]
    fn trailing_content_is_rejected() {
        assert!(parse("<a/><b/>").is_err());
        assert!(parse("<a/>junk").is_err());
    }

    #[test]
    fn unterminated_structures_are_rejected() {
        assert!(parse("<a>").is_err());
        assert!(parse("<a attr=\"x>").is_err());
        assert!(parse("<a><!-- no end").is_err());
        assert!(parse("<t><![CDATA[open").is_err());
    }

    #[test]
    fn nesting_past_the_cap_is_an_error() {
        let nested = |n: usize| "<a>".repeat(n) + &"</a>".repeat(n);
        // The default stack of a spawned thread holds the deepest
        // accepted document, its walks and its drop.
        std::thread::spawn(move || {
            let root = parse(&nested(MAX_NESTING)).unwrap();
            assert_eq!(root.descendant_count(), MAX_NESTING - 1);
            assert_eq!(parse(&to_string(&root)).unwrap(), root);
            let err = parse(&nested(MAX_NESTING + 1)).unwrap_err();
            assert_eq!(err.offset, "<a>".len() * MAX_NESTING, "{err}");
            assert!(err.message.starts_with("nesting deeper than"), "{err}");
        })
        .join()
        .unwrap();
    }

    #[test]
    fn nested_repeated_children() {
        let doc = "<books><book><author>A</author><author>B</author></book></books>";
        let root = parse(doc).unwrap();
        let book = root.child("book").unwrap();
        let authors = book.child_elements();
        assert_eq!(authors.len(), 2);
        assert_eq!(authors[1].text(), "B");
        assert_eq!(root.descendant_count(), 3);
    }

    #[test]
    fn namespaced_names_are_kept_verbatim() {
        let root = parse(r#"<ns:book xmlns:ns="http://x"/>"#).unwrap();
        assert_eq!(root.name, "ns:book");
        assert_eq!(root.attribute("xmlns:ns"), Some("http://x"));
    }

    #[test]
    fn round_trips_through_serializer() {
        let doc = r#"<books count="2"><book id="1">A &amp; B</book><empty/></books>"#;
        let root = parse(doc).unwrap();
        let text = to_string(&root);
        assert_eq!(parse(&text).unwrap(), root);
    }

    #[test]
    fn utf8_text_and_names() {
        let root = parse("<书名>三体</书名>").unwrap();
        assert_eq!(root.name, "书名");
        assert_eq!(root.text(), "三体");
    }

    #[test]
    fn whitespace_only_text_survives_as_nodes_but_trims_in_text() {
        let root = parse("<a> <b/> </a>").unwrap();
        assert_eq!(root.text(), "");
        assert_eq!(root.child_elements().len(), 1);
    }
}
