//! A dependency-free parser for the TOML subset compose descriptions
//! and campaign scenario files use.
//!
//! Supported: top-level `key = value` pairs, `[table]` sections,
//! `[[array-of-tables]]` sections, `#` comments, and the value forms
//! strings (`"..."`), integers (decimal, `0x` hex, `_` separators,
//! negative), booleans, and flat arrays. That is the whole schema of
//! both formats (see `docs/COMPOSE.md` and `docs/CAMPAIGN.md`);
//! anything fancier is a parse error, not silently misread.

use std::cell::RefCell;
use std::fmt;

/// A parsed TOML value.
#[derive(Debug, Clone, PartialEq)]
pub enum TomlValue {
    /// `"..."`.
    Str(String),
    /// Decimal or `0x` hex integer (underscore separators allowed).
    Int(i64),
    /// `true` / `false`.
    Bool(bool),
    /// `[v, v, ...]` of the scalar forms above.
    Array(Vec<TomlValue>),
}

impl TomlValue {
    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Self::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The integer payload, if this is an integer.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Self::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// The integer payload as `u64`, if non-negative.
    pub fn as_u64(&self) -> Option<u64> {
        self.as_int().and_then(|i| u64::try_from(i).ok())
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Self::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

/// A table: scalar entries plus named sub-tables and arrays-of-tables,
/// in file order.
///
/// The accessors remember what they are asked for, so after a loader
/// has run, [`TomlTable::unread`] lists what it never looked at: the
/// loaders stay lenient about unknown keys and the linter reports them
/// from this one record.
#[derive(Debug, Clone, Default)]
pub struct TomlTable {
    /// `key = value` pairs.
    pub values: Vec<(String, TomlValue)>,
    /// `[name]` sub-tables.
    pub tables: Vec<(String, TomlTable)>,
    /// `[[name]]` arrays of tables.
    pub arrays: Vec<(String, Vec<TomlTable>)>,
    /// Indices into `values` of the keys looked up so far.
    read_values: RefCell<Vec<usize>>,
    /// `(is_array, name)` of every section looked up so far, present or
    /// not, in first-lookup order.
    read_sections: RefCell<Vec<(bool, &'static str)>>,
}

/// Something in a document that no loader read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Unread {
    /// A key, with its section labelled the way loader errors label it
    /// (`top level`, `[metrics]`, `step 2`).
    Key {
        /// Section label.
        section: String,
        /// The key.
        key: String,
    },
    /// A whole `[name]` table.
    Table(String),
    /// A whole `[[name]]` array of tables.
    Array(String),
}

impl TomlTable {
    fn section_read(&self, is_array: bool, name: &str) -> bool {
        self.read_sections.borrow().contains(&(is_array, name))
    }

    fn mark_section(&self, is_array: bool, name: &'static str) {
        if !self.section_read(is_array, name) {
            self.read_sections.borrow_mut().push((is_array, name));
        }
    }

    /// Scalar value for `key`.
    pub fn get(&self, key: &str) -> Option<&TomlValue> {
        let index = self.values.iter().position(|(k, _)| k == key)?;
        let mut read = self.read_values.borrow_mut();
        if !read.contains(&index) {
            read.push(index);
        }
        Some(&self.values[index].1)
    }

    /// String value for `key`; `Ok(None)` when absent, an error naming
    /// the key when it holds another type.
    pub fn read_str(&self, key: &str) -> Result<Option<&str>, String> {
        self.read_as(key, TomlValue::as_str, "a string")
    }

    /// Non-negative integer value for `key`; `Ok(None)` when absent, an
    /// error naming the key when it holds anything else.
    pub fn read_u64(&self, key: &str) -> Result<Option<u64>, String> {
        self.read_as(key, TomlValue::as_u64, "a non-negative integer")
    }

    /// Boolean value for `key`; `Ok(None)` when absent, an error naming
    /// the key when it holds another type.
    pub fn read_bool(&self, key: &str) -> Result<Option<bool>, String> {
        self.read_as(key, TomlValue::as_bool, "a boolean")
    }

    fn read_as<'a, T>(
        &'a self,
        key: &str,
        cast: impl Fn(&'a TomlValue) -> Option<T>,
        what: &str,
    ) -> Result<Option<T>, String> {
        self.get(key)
            .map(|value| cast(value).ok_or_else(|| format!("`{key}` must be {what}")))
            .transpose()
    }

    /// Sub-table `[name]`.
    pub fn table(&self, name: &'static str) -> Option<&TomlTable> {
        self.mark_section(false, name);
        self.tables.iter().find(|(k, _)| k == name).map(|(_, t)| t)
    }

    /// Array-of-tables `[[name]]` (empty slice if absent).
    pub fn array(&self, name: &'static str) -> &[TomlTable] {
        self.mark_section(true, name);
        self.arrays
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, a)| a.as_slice())
            .unwrap_or(&[])
    }

    /// The `[table]` then `[[array]]` headers looked up so far, each in
    /// lookup order: the sections a loader that has run knows about.
    pub fn sections_read(&self) -> Vec<String> {
        let mut read = self.read_sections.borrow().clone();
        read.sort_by_key(|(is_array, _)| *is_array);
        read.into_iter()
            .map(|(is_array, name)| match is_array {
                true => format!("[[{name}]]"),
                false => format!("[{name}]"),
            })
            .collect()
    }

    /// Everything in the document no accessor has read, in file order:
    /// top-level keys, then each table, then each array element.
    pub fn unread(&self) -> Vec<Unread> {
        let mut out = Vec::new();
        self.unread_keys("top level", &mut out);
        for (name, table) in &self.tables {
            if self.section_read(false, name) {
                table.unread_keys(&format!("[{name}]"), &mut out);
            } else {
                out.push(Unread::Table(name.clone()));
            }
        }
        for (name, tables) in &self.arrays {
            if self.section_read(true, name) {
                for (i, table) in tables.iter().enumerate() {
                    table.unread_keys(&format!("{name} {}", i + 1), &mut out);
                }
            } else {
                out.push(Unread::Array(name.clone()));
            }
        }
        out
    }

    fn unread_keys(&self, section: &str, out: &mut Vec<Unread>) {
        let read = self.read_values.borrow();
        for (index, (key, _)) in self.values.iter().enumerate() {
            if !read.contains(&index) {
                out.push(Unread::Key {
                    section: section.to_string(),
                    key: key.clone(),
                });
            }
        }
    }
}

/// A parse failure, with the 1-based source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TomlError {
    /// 1-based line number of the offending line.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for TomlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for TomlError {}

fn err(line: usize, message: impl Into<String>) -> TomlError {
    TomlError {
        line,
        message: message.into(),
    }
}

/// Strips a trailing comment that is not inside a string literal.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

fn parse_int(text: &str, line: usize) -> Result<i64, TomlError> {
    let cleaned: String = text.chars().filter(|c| *c != '_').collect();
    let (negative, digits) = match cleaned.strip_prefix('-') {
        Some(rest) => (true, rest),
        None => (false, cleaned.as_str()),
    };
    let value = if let Some(hex) = digits
        .strip_prefix("0x")
        .or_else(|| digits.strip_prefix("0X"))
    {
        i64::from_str_radix(hex, 16)
    } else {
        digits.parse::<i64>()
    }
    .map_err(|_| err(line, format!("invalid integer `{text}`")))?;
    Ok(if negative { -value } else { value })
}

fn parse_scalar(text: &str, line: usize) -> Result<TomlValue, TomlError> {
    let text = text.trim();
    if let Some(rest) = text.strip_prefix('"') {
        let Some(inner) = rest.strip_suffix('"') else {
            return Err(err(line, "unterminated string"));
        };
        if inner.contains('"') {
            return Err(err(line, "escapes and embedded quotes are not supported"));
        }
        return Ok(TomlValue::Str(inner.to_string()));
    }
    match text {
        "true" => return Ok(TomlValue::Bool(true)),
        "false" => return Ok(TomlValue::Bool(false)),
        _ => {}
    }
    parse_int(text, line).map(TomlValue::Int)
}

fn parse_value(text: &str, line: usize) -> Result<TomlValue, TomlError> {
    let text = text.trim();
    if let Some(rest) = text.strip_prefix('[') {
        let Some(inner) = rest.strip_suffix(']') else {
            return Err(err(line, "unterminated array"));
        };
        let inner = inner.trim();
        if inner.is_empty() {
            return Ok(TomlValue::Array(Vec::new()));
        }
        let items = inner
            .split(',')
            .map(|item| parse_scalar(item, line))
            .collect::<Result<Vec<_>, _>>()?;
        return Ok(TomlValue::Array(items));
    }
    parse_scalar(text, line)
}

fn valid_key(key: &str) -> bool {
    !key.is_empty()
        && key
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_')
}

/// Parses a scenario document.
///
/// # Errors
///
/// Returns a [`TomlError`] naming the offending line for any construct
/// outside the supported subset.
pub fn parse(input: &str) -> Result<TomlTable, TomlError> {
    let mut root = TomlTable::default();
    // Where new `key = value` pairs go: the root, a `[table]`, or the
    // latest element of a `[[array]]`.
    enum Cursor {
        Root,
        Table(usize),
        Array(usize),
    }
    let mut cursor = Cursor::Root;

    for (idx, raw) in input.lines().enumerate() {
        let lineno = idx + 1;
        let line = strip_comment(raw).trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("[[") {
            let Some(name) = rest.strip_suffix("]]") else {
                return Err(err(lineno, "malformed [[header]]"));
            };
            let name = name.trim();
            if !valid_key(name) {
                return Err(err(lineno, format!("invalid table name `{name}`")));
            }
            let pos = match root.arrays.iter().position(|(k, _)| k == name) {
                Some(pos) => pos,
                None => {
                    root.arrays.push((name.to_string(), Vec::new()));
                    root.arrays.len() - 1
                }
            };
            root.arrays[pos].1.push(TomlTable::default());
            cursor = Cursor::Array(pos);
            continue;
        }
        if let Some(rest) = line.strip_prefix('[') {
            let Some(name) = rest.strip_suffix(']') else {
                return Err(err(lineno, "malformed [header]"));
            };
            let name = name.trim();
            if !valid_key(name) {
                return Err(err(lineno, format!("invalid table name `{name}`")));
            }
            if root.tables.iter().any(|(k, _)| k == name) {
                return Err(err(lineno, format!("duplicate table `{name}`")));
            }
            root.tables.push((name.to_string(), TomlTable::default()));
            cursor = Cursor::Table(root.tables.len() - 1);
            continue;
        }
        let Some(eq) = line.find('=') else {
            return Err(err(lineno, format!("expected `key = value`, got `{line}`")));
        };
        let key = line[..eq].trim();
        if !valid_key(key) {
            return Err(err(lineno, format!("invalid key `{key}`")));
        }
        let value = parse_value(&line[eq + 1..], lineno)?;
        let target = match cursor {
            Cursor::Root => &mut root,
            Cursor::Table(pos) => &mut root.tables[pos].1,
            Cursor::Array(pos) => root.arrays[pos]
                .1
                .last_mut()
                .expect("array cursor points at a pushed element"),
        };
        if target.values.iter().any(|(k, _)| k == key) {
            return Err(err(lineno, format!("duplicate key `{key}`")));
        }
        target.values.push((key.to_string(), value));
    }
    Ok(root)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_scenario_shape() {
        let doc = parse(
            r#"
            # a scenario
            name = "drop-irq"
            seeds = 64            # trailing comment
            enabled = true
            bits = [1, 2, 0x10]

            [limits]
            latency-bound = 200_000

            [[step]]
            kind = "cred-escalation"
            pid = 1

            [[step]]
            kind = "text-patch"

            [[fault]]
            kind = "drop-irq"
            at = 1
            count = 1
            "#,
        )
        .expect("parses");
        assert_eq!(doc.read_str("name"), Ok(Some("drop-irq")));
        assert_eq!(doc.read_u64("seeds"), Ok(Some(64)));
        assert_eq!(doc.read_bool("enabled"), Ok(Some(true)));
        assert_eq!(
            doc.get("bits"),
            Some(&TomlValue::Array(vec![
                TomlValue::Int(1),
                TomlValue::Int(2),
                TomlValue::Int(16)
            ]))
        );
        assert_eq!(
            doc.table("limits").unwrap().read_u64("latency-bound"),
            Ok(Some(200_000))
        );
        let steps = doc.array("step");
        assert_eq!(steps.len(), 2);
        assert_eq!(steps[0].read_str("kind"), Ok(Some("cred-escalation")));
        assert_eq!(steps[0].read_u64("pid"), Ok(Some(1)));
        assert_eq!(steps[1].read_str("kind"), Ok(Some("text-patch")));
        assert_eq!(doc.array("fault").len(), 1);
        assert_eq!(doc.array("missing").len(), 0);
    }

    #[test]
    fn hex_and_negative_integers() {
        let doc = parse("a = 0xFF\nb = -3\nc = 1_000").expect("parses");
        assert_eq!(doc.get("a"), Some(&TomlValue::Int(255)));
        assert_eq!(doc.get("b"), Some(&TomlValue::Int(-3)));
        assert_eq!(doc.get("c"), Some(&TomlValue::Int(1000)));
        assert!(doc.read_u64("b").is_err(), "negative is not a u64");
        assert!(doc.read_str("a").unwrap_err().contains("`a`"));
        assert_eq!(doc.read_u64("absent"), Ok(None));
    }

    #[test]
    fn unread_lists_what_no_accessor_looked_at() {
        let doc = parse(
            "name = \"x\"\ntypo = 1\n[known]\nk = 1\nstray = 2\n[other]\n[[item]]\nk = 1\n[[junk]]",
        )
        .expect("parses");
        doc.get("name");
        if let Some(known) = doc.table("known") {
            known.get("k");
        }
        for item in doc.array("item") {
            item.get("k");
        }
        doc.table("never-present");
        let key = |section: &str, key: &str| Unread::Key {
            section: section.to_string(),
            key: key.to_string(),
        };
        assert_eq!(
            doc.unread(),
            vec![
                key("top level", "typo"),
                key("[known]", "stray"),
                Unread::Table("other".to_string()),
                Unread::Array("junk".to_string()),
            ]
        );
        assert_eq!(
            doc.sections_read(),
            vec!["[known]", "[never-present]", "[[item]]"]
        );
    }

    #[test]
    fn hash_inside_string_is_not_a_comment() {
        let doc = parse(r##"path = "/tmp/#x""##).expect("parses");
        assert_eq!(doc.read_str("path"), Ok(Some("/tmp/#x")));
    }

    #[test]
    fn errors_carry_line_numbers() {
        let e = parse("ok = 1\nnope").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(parse("x = \"unterminated").is_err());
        assert!(parse("x = zzz").is_err());
        assert!(parse("[t]\n[t]").unwrap_err().message.contains("duplicate"));
        assert!(parse("x = 1\nx = 2").is_err());
    }
}
