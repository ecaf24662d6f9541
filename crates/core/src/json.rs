//! Minimal JSON emission shared by the workspace's document writers.
//!
//! The repo writes machine-diffable artifacts as JSON documents — the E10
//! hot-path rates `lofat bench-json` writes (rendered by `lofat-bench`) and
//! the scenario-fleet manifests (rendered by `lofat-fleet`, the golden one
//! committed).  Every emitter renders through this one writer instead of
//! hand-rolling string concatenation per document, so the artifacts stay
//! structurally uniform (2-space indentation, stable field order).
//!
//! This is an *emitter only*: the workspace has no JSON parser and does not
//! need one (CI gates run under `python3` or byte-compare against committed
//! goldens).  Values are restricted to what the committed documents use —
//! objects, arrays, strings, integers and fixed-precision floats.

use std::fmt::Write as _;

/// An append-only pretty-printing JSON writer.
///
/// Containers are explicit (`begin_object`/`end_object`,
/// `begin_array`/`end_array`); commas and indentation are managed by the
/// writer.  The root container is whatever is begun first.
///
/// # Example
///
/// ```
/// use lofat::json::JsonWriter;
///
/// let mut w = JsonWriter::new();
/// w.begin_object(None);
/// w.field_str("bench", "demo");
/// w.begin_array(Some("samples"));
/// w.begin_object(None);
/// w.field_u64("workers", 4);
/// w.field_f64("rate", 1234.5678, 1);
/// w.end_object();
/// w.end_array();
/// w.end_object();
/// assert!(w.finish().contains("\"workers\": 4"));
/// ```
#[derive(Debug, Default)]
pub struct JsonWriter {
    out: String,
    /// One entry per open container: `true` once it holds at least one item.
    stack: Vec<bool>,
}

impl JsonWriter {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    fn item_prefix(&mut self) {
        if let Some(has_items) = self.stack.last_mut() {
            if *has_items {
                self.out.push(',');
            }
            *has_items = true;
            self.out.push('\n');
            for _ in 0..self.stack.len() {
                self.out.push_str("  ");
            }
        }
    }

    fn name_prefix(&mut self, name: Option<&str>) {
        self.item_prefix();
        if let Some(name) = name {
            self.out.push('"');
            self.push_escaped(name);
            self.out.push_str("\": ");
        }
    }

    fn push_escaped(&mut self, text: &str) {
        for c in text.chars() {
            match c {
                '"' => self.out.push_str("\\\""),
                '\\' => self.out.push_str("\\\\"),
                '\n' => self.out.push_str("\\n"),
                c if (c as u32) < 0x20 => {
                    let _ = write!(self.out, "\\u{:04x}", c as u32);
                }
                c => self.out.push(c),
            }
        }
    }

    /// Opens an object; `name` is required inside objects, `None` inside
    /// arrays (and for the root).
    pub fn begin_object(&mut self, name: Option<&str>) {
        self.name_prefix(name);
        self.out.push('{');
        self.stack.push(false);
    }

    /// Closes the innermost object.
    pub fn end_object(&mut self) {
        self.close_container('}');
    }

    /// Opens an array (same naming rule as [`JsonWriter::begin_object`]).
    pub fn begin_array(&mut self, name: Option<&str>) {
        self.name_prefix(name);
        self.out.push('[');
        self.stack.push(false);
    }

    /// Closes the innermost array.
    pub fn end_array(&mut self) {
        self.close_container(']');
    }

    fn close_container(&mut self, closer: char) {
        let had_items = self.stack.pop().expect("close without matching open");
        if had_items {
            self.out.push('\n');
            for _ in 0..self.stack.len() {
                self.out.push_str("  ");
            }
        }
        self.out.push(closer);
    }

    /// A string field.
    pub fn field_str(&mut self, name: &str, value: &str) {
        self.name_prefix(Some(name));
        self.out.push('"');
        self.push_escaped(value);
        self.out.push('"');
    }

    /// An unsigned-integer field.
    pub fn field_u64(&mut self, name: &str, value: u64) {
        self.name_prefix(Some(name));
        let _ = write!(self.out, "{value}");
    }

    /// A boolean field.
    pub fn field_bool(&mut self, name: &str, value: bool) {
        self.name_prefix(Some(name));
        self.out.push_str(if value { "true" } else { "false" });
    }

    /// A fixed-precision float field (`decimals` digits after the point).
    /// Non-finite values are emitted as `null` — JSON has no NaN/Infinity.
    pub fn field_f64(&mut self, name: &str, value: f64, decimals: usize) {
        self.name_prefix(Some(name));
        if value.is_finite() {
            let _ = write!(self.out, "{value:.decimals$}");
        } else {
            self.out.push_str("null");
        }
    }

    /// Renders the document (with a trailing newline, as committed files
    /// want).  All containers must be closed.
    pub fn finish(self) -> String {
        assert!(self.stack.is_empty(), "unclosed JSON container");
        let mut out = self.out;
        out.push('\n');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_document_renders_with_commas_and_indentation() {
        let mut w = JsonWriter::new();
        w.begin_object(None);
        w.field_str("bench", "demo");
        w.field_u64("schema_version", 2);
        w.begin_array(Some("sweep"));
        for workers in [1u64, 2] {
            w.begin_object(None);
            w.field_u64("workers", workers);
            w.field_f64("rate", 0.5, 1);
            w.end_object();
        }
        w.end_array();
        w.begin_object(Some("empty"));
        w.end_object();
        w.end_object();
        let doc = w.finish();
        assert_eq!(
            doc,
            "{\n  \"bench\": \"demo\",\n  \"schema_version\": 2,\n  \"sweep\": [\n    {\n      \
             \"workers\": 1,\n      \"rate\": 0.5\n    },\n    {\n      \"workers\": 2,\n      \
             \"rate\": 0.5\n    }\n  ],\n  \"empty\": {}\n}\n"
        );
    }

    #[test]
    fn strings_are_escaped_and_non_finite_floats_become_null() {
        let mut w = JsonWriter::new();
        w.begin_object(None);
        w.field_str("note", "a \"quoted\" \\ line\nnext");
        w.field_f64("bad", f64::NAN, 2);
        w.field_bool("ok", true);
        w.end_object();
        let doc = w.finish();
        assert!(doc.contains("a \\\"quoted\\\" \\\\ line\\nnext"));
        assert!(doc.contains("\"bad\": null"));
        assert!(doc.contains("\"ok\": true"));
    }
}
