//! An RFC 4180 CSV reader with type sniffing.
//!
//! Supports quoted fields (embedded separators, quotes and newlines),
//! CRLF / LF line endings, configurable separators, and an optional
//! header row. Cell values are sniffed into the workspace [`Value`]
//! model (int → float → bool → string).

use crate::error::ParseError;
use multirag_kg::Value;

/// Reader configuration.
#[derive(Debug, Clone, Copy)]
pub struct CsvOptions {
    /// Field separator (default `,`).
    pub separator: u8,
    /// Whether the first row is a header (default true).
    pub has_header: bool,
    /// Whether to trim unquoted whitespace around fields (default true).
    pub trim: bool,
}

impl Default for CsvOptions {
    fn default() -> Self {
        Self {
            separator: b',',
            has_header: true,
            trim: true,
        }
    }
}

/// A parsed CSV table.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    /// Column names; synthesized as `col0..colN` when there is no header.
    pub headers: Vec<String>,
    /// Row-major typed cells; every row has `headers.len()` cells.
    pub rows: Vec<Vec<Value>>,
}

impl Table {
    /// Index of a named column.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.headers.iter().position(|h| h == name)
    }

    /// Cell accessor.
    pub fn cell(&self, row: usize, column: usize) -> Option<&Value> {
        self.rows.get(row).and_then(|r| r.get(column))
    }

    /// Column accessor by name.
    pub fn column(&self, name: &str) -> Option<Vec<&Value>> {
        let idx = self.column_index(name)?;
        Some(self.rows.iter().map(|r| &r[idx]).collect())
    }
}

/// Parses CSV text with default options.
pub fn parse(input: &str) -> Result<Table, ParseError> {
    parse_with(input, CsvOptions::default())
}

/// Parses CSV text with explicit options.
pub fn parse_with(input: &str, options: CsvOptions) -> Result<Table, ParseError> {
    let records = read_records(input, options)?;
    let mut iter = records.into_iter();
    let (headers, first_row) = if options.has_header {
        match iter.next() {
            Some(header_fields) => (
                header_fields
                    .into_iter()
                    .map(|f| f.text)
                    .collect::<Vec<_>>(),
                None,
            ),
            None => (Vec::new(), None),
        }
    } else {
        match iter.next() {
            Some(fields) => {
                let headers = (0..fields.len()).map(|i| format!("col{i}")).collect();
                (headers, Some(fields))
            }
            None => (Vec::new(), None),
        }
    };

    let mut rows = Vec::new();
    let width = headers.len();
    let mut handle = |fields: Vec<Field>, input: &str| -> Result<(), ParseError> {
        if width != 0 && fields.len() != width {
            return Err(ParseError::at(
                "csv",
                input,
                fields.first().map(|f| f.offset).unwrap_or(0),
                format!("expected {width} fields, found {}", fields.len()),
            ));
        }
        rows.push(fields.into_iter().map(|f| sniff(&f)).collect());
        Ok(())
    };
    if let Some(fields) = first_row {
        handle(fields, input)?;
    }
    for fields in iter {
        handle(fields, input)?;
    }
    Ok(Table { headers, rows })
}

/// Serializes a table back to CSV text. String cells that would
/// re-sniff as a different type (numeric-looking text like `"00"`,
/// booleans) are quoted so the round trip preserves types.
pub fn to_string(table: &Table) -> String {
    let mut out = String::new();
    write_row(&mut out, table.headers.iter().map(String::as_str));
    for row in &table.rows {
        for (i, cell) in row.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            match cell {
                Value::Null => {}
                Value::Str(s) if needs_quoting(s) => {
                    out.push('"');
                    for c in s.chars() {
                        if c == '"' {
                            out.push('"');
                        }
                        out.push(c);
                    }
                    out.push('"');
                }
                other => out.push_str(&other.to_string()),
            }
        }
        // A lone empty cell would render as a blank (skipped) line.
        if row.len() == 1 && matches!(&row[0], Value::Null) {
            // Null round-trips through an empty unquoted field, but a
            // single-column Null row still needs the line to exist.
            out.push_str("\"\"");
            // NOTE: this re-reads as Str(""), the closest representable
            // row; documented lossy corner.
        }
        out.push('\n');
    }
    out
}

/// Whether a string cell must be quoted: structural characters, or
/// content that would re-sniff as a non-string value (numeric-looking
/// text like "00", booleans, padded or empty strings).
fn needs_quoting(s: &str) -> bool {
    let t = s.trim();
    s.contains(',')
        || s.contains('"')
        || s.contains('\n')
        || s.contains('\r')
        || t != s
        || t.is_empty()
        || t.parse::<i64>().is_ok()
        || t.parse::<f64>().map(|f| f.is_finite()).unwrap_or(false)
        || matches!(t, "true" | "TRUE" | "True" | "false" | "FALSE" | "False")
}

fn write_row<'a>(out: &mut String, fields: impl Iterator<Item = &'a str>) {
    let fields: Vec<&str> = fields.collect();
    if fields.len() == 1 && fields[0].is_empty() {
        // A lone empty field would serialize to a blank line, which
        // readers skip; quote it so the row survives a round trip.
        out.push_str("\"\"\n");
        return;
    }
    for (i, field) in fields.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        if field.contains(',')
            || field.contains('"')
            || field.contains('\n')
            || field.contains('\r')
        {
            out.push('"');
            for c in field.chars() {
                if c == '"' {
                    out.push('"');
                }
                out.push(c);
            }
            out.push('"');
        } else {
            out.push_str(field);
        }
    }
    out.push('\n');
}

#[derive(Debug)]
struct Field {
    text: String,
    quoted: bool,
    offset: usize,
}

fn read_records(input: &str, options: CsvOptions) -> Result<Vec<Vec<Field>>, ParseError> {
    let bytes = input.as_bytes();
    let mut records: Vec<Vec<Field>> = Vec::new();
    let mut record: Vec<Field> = Vec::new();
    let mut field = String::new();
    let mut field_quoted = false;
    let mut field_offset = 0usize;
    let mut pos = 0usize;
    let mut in_quotes = false;
    let mut record_started = false;

    let finish_field = |field: &mut String,
                        quoted: &mut bool,
                        offset: usize,
                        record: &mut Vec<Field>,
                        trim: bool| {
        let mut text = std::mem::take(field);
        if trim && !*quoted {
            text = text.trim().to_string();
        }
        record.push(Field {
            text,
            quoted: *quoted,
            offset,
        });
        *quoted = false;
    };

    while pos < bytes.len() {
        let b = bytes[pos];
        if in_quotes {
            match b {
                b'"' => {
                    if bytes.get(pos + 1) == Some(&b'"') {
                        field.push('"');
                        pos += 2;
                    } else {
                        in_quotes = false;
                        pos += 1;
                    }
                }
                _ => {
                    let Some(c) = input.get(pos..).and_then(|s| s.chars().next()) else {
                        return Err(ParseError::at("csv", input, pos, "broken character"));
                    };
                    field.push(c);
                    pos += c.len_utf8();
                }
            }
            continue;
        }
        match b {
            b'"' if field.is_empty() && !field_quoted => {
                in_quotes = true;
                field_quoted = true;
                record_started = true;
                field_offset = pos;
                pos += 1;
            }
            b'"' => {
                return Err(ParseError::at(
                    "csv",
                    input,
                    pos,
                    "quote in the middle of an unquoted field",
                ));
            }
            _ if b == options.separator => {
                finish_field(
                    &mut field,
                    &mut field_quoted,
                    field_offset,
                    &mut record,
                    options.trim,
                );
                record_started = true;
                pos += 1;
                field_offset = pos;
            }
            b'\r' => {
                // Treat CRLF as one terminator; a lone CR also ends the line.
                if record_started || !field.is_empty() || !record.is_empty() {
                    finish_field(
                        &mut field,
                        &mut field_quoted,
                        field_offset,
                        &mut record,
                        options.trim,
                    );
                    records.push(std::mem::take(&mut record));
                    record_started = false;
                }
                pos += 1;
                if bytes.get(pos) == Some(&b'\n') {
                    pos += 1;
                }
                field_offset = pos;
            }
            b'\n' => {
                if record_started || !field.is_empty() || !record.is_empty() {
                    finish_field(
                        &mut field,
                        &mut field_quoted,
                        field_offset,
                        &mut record,
                        options.trim,
                    );
                    records.push(std::mem::take(&mut record));
                    record_started = false;
                }
                pos += 1;
                field_offset = pos;
            }
            _ => {
                let Some(c) = input.get(pos..).and_then(|s| s.chars().next()) else {
                    return Err(ParseError::at("csv", input, pos, "broken character"));
                };
                field.push(c);
                record_started = true;
                pos += c.len_utf8();
            }
        }
    }
    if in_quotes {
        return Err(ParseError::at(
            "csv",
            input,
            pos,
            "unterminated quoted field",
        ));
    }
    if record_started || !field.is_empty() || !record.is_empty() {
        finish_field(
            &mut field,
            &mut field_quoted,
            field_offset,
            &mut record,
            options.trim,
        );
        records.push(record);
    }
    Ok(records)
}

/// Sniffs a raw field into a typed [`Value`]. Quoted fields stay
/// strings; unquoted ones try int, float, bool, then null-for-empty.
fn sniff(field: &Field) -> Value {
    if field.quoted {
        return Value::Str(field.text.clone());
    }
    let text = field.text.as_str();
    if text.is_empty() {
        return Value::Null;
    }
    if let Ok(i) = text.parse::<i64>() {
        return Value::Int(i);
    }
    if let Ok(f) = text.parse::<f64>() {
        if f.is_finite() {
            return Value::Float(f);
        }
    }
    match text {
        "true" | "TRUE" | "True" => return Value::Bool(true),
        "false" | "FALSE" | "False" => return Value::Bool(false),
        _ => {}
    }
    Value::Str(text.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_simple_table() {
        let table = parse("name,year\nInception,2010\nHeat,1995\n").unwrap();
        assert_eq!(table.headers, vec!["name", "year"]);
        assert_eq!(table.rows.len(), 2);
        assert_eq!(table.cell(0, 0), Some(&Value::from("Inception")));
        assert_eq!(table.cell(1, 1), Some(&Value::Int(1995)));
    }

    #[test]
    fn type_sniffing_covers_all_scalars() {
        let table = parse("a,b,c,d,e\n1,2.5,true,,text\n").unwrap();
        assert_eq!(table.rows[0][0], Value::Int(1));
        assert_eq!(table.rows[0][1], Value::Float(2.5));
        assert_eq!(table.rows[0][2], Value::Bool(true));
        assert_eq!(table.rows[0][3], Value::Null);
        assert_eq!(table.rows[0][4], Value::from("text"));
    }

    #[test]
    fn quoted_fields_preserve_content_and_type() {
        let table = parse("a,b\n\"1,5\",\"2010\"\n").unwrap();
        assert_eq!(table.rows[0][0], Value::from("1,5"));
        // Quoted numbers stay strings.
        assert_eq!(table.rows[0][1], Value::from("2010"));
    }

    #[test]
    fn escaped_quotes_inside_quotes() {
        let table = parse("a\n\"he said \"\"hi\"\"\"\n").unwrap();
        assert_eq!(table.rows[0][0], Value::from("he said \"hi\""));
    }

    #[test]
    fn embedded_newlines_in_quotes() {
        let table = parse("a,b\n\"line1\nline2\",x\n").unwrap();
        assert_eq!(table.rows.len(), 1);
        assert_eq!(table.rows[0][0], Value::from("line1\nline2"));
    }

    #[test]
    fn crlf_line_endings() {
        let table = parse("a,b\r\n1,2\r\n3,4\r\n").unwrap();
        assert_eq!(table.rows.len(), 2);
        assert_eq!(table.rows[1][1], Value::Int(4));
    }

    #[test]
    fn missing_trailing_newline_is_fine() {
        let table = parse("a,b\n1,2").unwrap();
        assert_eq!(table.rows.len(), 1);
    }

    #[test]
    fn ragged_rows_are_rejected() {
        let err = parse("a,b\n1,2,3\n").unwrap_err();
        assert!(err.message.contains("expected 2 fields"));
    }

    #[test]
    fn unterminated_quote_is_rejected() {
        assert!(parse("a\n\"oops\n").is_err());
    }

    #[test]
    fn quote_mid_field_is_rejected() {
        assert!(parse("a\nval\"ue\n").is_err());
    }

    #[test]
    fn headerless_mode_synthesizes_names() {
        let options = CsvOptions {
            has_header: false,
            ..CsvOptions::default()
        };
        let table = parse_with("1,2\n3,4\n", options).unwrap();
        assert_eq!(table.headers, vec!["col0", "col1"]);
        assert_eq!(table.rows.len(), 2);
    }

    #[test]
    fn custom_separator() {
        let options = CsvOptions {
            separator: b';',
            ..CsvOptions::default()
        };
        let table = parse_with("a;b\n1;2\n", options).unwrap();
        assert_eq!(table.headers, vec!["a", "b"]);
        assert_eq!(table.rows[0][1], Value::Int(2));
    }

    #[test]
    fn trims_unquoted_whitespace() {
        let table = parse("a,b\n  x , 1 \n").unwrap();
        assert_eq!(table.rows[0][0], Value::from("x"));
        assert_eq!(table.rows[0][1], Value::Int(1));
    }

    #[test]
    fn quoted_whitespace_is_preserved() {
        let table = parse("a\n\" padded \"\n").unwrap();
        assert_eq!(table.rows[0][0], Value::from(" padded "));
    }

    #[test]
    fn empty_input_is_empty_table() {
        let table = parse("").unwrap();
        assert!(table.headers.is_empty());
        assert_eq!(table.rows.len(), 0);
    }

    #[test]
    fn column_lookup() {
        let table = parse("name,year\nHeat,1995\n").unwrap();
        assert_eq!(table.column_index("year"), Some(1));
        assert_eq!(table.column_index("nope"), None);
        let years = table.column("year").unwrap();
        assert_eq!(years, vec![&Value::Int(1995)]);
        assert_eq!(table.headers.len(), 2);
    }

    #[test]
    fn round_trips_through_serializer() {
        let source = "name,tags\n\"Fast, Furious\",\"a\"\"b\"\nPlain,simple\n";
        let table = parse(source).unwrap();
        let text = to_string(&table);
        let reparsed = parse(&text).unwrap();
        assert_eq!(reparsed.headers, table.headers);
        // Note: numbers render without quotes, so value equality (not
        // textual equality) is the contract.
        assert_eq!(reparsed.rows[0][0], table.rows[0][0]);
        assert_eq!(reparsed.rows[1][1], table.rows[1][1]);
    }

    #[test]
    fn utf8_content_survives() {
        let table = parse("名前,都市\n北京,東京\n").unwrap();
        assert_eq!(table.headers[0], "名前");
        assert_eq!(table.rows[0][1], Value::from("東京"));
    }
}
