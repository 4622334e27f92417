//! An RFC 4180 CSV reader with type sniffing.
//!
//! Supports quoted fields (embedded commas, quotes and newlines) and
//! CRLF / LF line endings. The first row is the header; its names must
//! be distinct. Unquoted whitespace around a field is trimmed. Cell
//! values are sniffed into the workspace [`Value`] model (int → float →
//! bool → string).

use crate::error::ParseError;
use multirag_kg::Value;

/// A parsed CSV table.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    /// Column names, from the header row.
    pub headers: Vec<String>,
    /// Row-major typed cells; every row has `headers.len()` cells.
    pub rows: Vec<Vec<Value>>,
}

/// Parses CSV text whose first row is the header. A header name given
/// twice is an error at its second occurrence, as is a row whose width
/// differs from the header's.
pub fn parse(input: &str) -> Result<Table, ParseError> {
    let mut records = read_records(input)?.into_iter();
    let mut headers: Vec<String> = Vec::new();
    for field in records.next().unwrap_or_default() {
        if headers.contains(&field.text) {
            return Err(ParseError::at(
                "csv",
                input,
                field.offset,
                format!("repeated header '{}'", field.text),
            ));
        }
        headers.push(field.text);
    }
    let width = headers.len();
    let mut rows = Vec::new();
    for fields in records {
        if fields.len() != width {
            return Err(ParseError::at(
                "csv",
                input,
                fields.first().map(|f| f.offset).unwrap_or(0),
                format!("expected {width} fields, found {}", fields.len()),
            ));
        }
        rows.push(fields.into_iter().map(sniff).collect());
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

fn read_records(input: &str) -> Result<Vec<Vec<Field>>, ParseError> {
    let bytes = input.as_bytes();
    let mut records: Vec<Vec<Field>> = Vec::new();
    let mut record: Vec<Field> = Vec::new();
    let mut field = String::new();
    let mut field_quoted = false;
    let mut field_offset = 0usize;
    let mut pos = 0usize;
    let mut in_quotes = false;
    let mut record_started = false;

    let finish_field =
        |field: &mut String, quoted: &mut bool, offset: usize, record: &mut Vec<Field>| {
            let mut text = std::mem::take(field);
            if !*quoted {
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
            b',' => {
                finish_field(&mut field, &mut field_quoted, field_offset, &mut record);
                record_started = true;
                pos += 1;
                field_offset = pos;
            }
            b'\r' => {
                // Treat CRLF as one terminator; a lone CR also ends the line.
                if record_started || !field.is_empty() || !record.is_empty() {
                    finish_field(&mut field, &mut field_quoted, field_offset, &mut record);
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
                    finish_field(&mut field, &mut field_quoted, field_offset, &mut record);
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
        finish_field(&mut field, &mut field_quoted, field_offset, &mut record);
        records.push(record);
    }
    Ok(records)
}

/// Sniffs a raw field into a typed [`Value`]. Quoted fields stay
/// strings; unquoted ones try int, float, bool, then null-for-empty.
fn sniff(field: Field) -> Value {
    if field.quoted {
        return Value::Str(field.text);
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
    Value::Str(field.text)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_simple_table() {
        let table = parse("name,year\nInception,2010\nHeat,1995\n").unwrap();
        assert_eq!(table.headers, vec!["name", "year"]);
        assert_eq!(table.rows.len(), 2);
        assert_eq!(table.rows[0][0], Value::from("Inception"));
        assert_eq!(table.rows[1][1], Value::Int(1995));
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
    fn repeated_header_is_rejected_at_its_second_occurrence() {
        let err = parse("id,a,b,\"a\"\n1,2,3,4\n").unwrap_err();
        assert_eq!((err.line, err.column, err.offset), (1, 8, 7));
        assert!(err.message.contains("repeated header 'a'"), "{err}");
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
        let year = table.headers.iter().position(|h| h == "year");
        assert_eq!(year, Some(1));
        assert!(!table.headers.iter().any(|h| h == "nope"));
        let years: Vec<&Value> = table.rows.iter().map(|r| &r[1]).collect();
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
