//! The workspace's one JSON value, writer and reader. Every artifact
//! (`REPRODUCTION.json`, PROFILE / SERVE / TUNE.json, the tuning cache)
//! is built as a [`Json`], and the tuning cache is parsed back here.
//! Unlike a textbook reader, a non-negative integer literal stays exact
//! as a `u64` (matrix fingerprints are almost always ≥ 2⁵³), and nesting
//! deeper than 128 levels is an error, not a stack overflow: a hostile
//! file costs an `Err`, never the process.

use std::fmt;

/// The `schema_version` at the top of every file the CLI writes.
pub const SCHEMA_VERSION: u32 = 1;

const MAX_DEPTH: usize = 128;

/// A JSON value. Objects keep insertion order, so files diff cleanly.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    /// A non-negative integer, exact.
    Int(u64),
    /// Any other number; a non-finite one is written as `null`.
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An empty object, to be filled with [`Json::set`].
    pub fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    /// `v` rounded the way `{:.digits}` prints it (format, then parse),
    /// so the written number equals that text as an `f64`.
    pub fn fixed(v: f64, digits: usize) -> Json {
        Json::Num(format!("{v:.digits$}").parse().unwrap_or(v))
    }

    /// The object with `key` set to `value`, replacing an earlier value.
    ///
    /// # Panics
    /// Panics on a non-object.
    pub fn set(mut self, key: &str, value: impl Into<Json>) -> Json {
        let Json::Obj(fields) = &mut self else { panic!("Json::set on a non-object") };
        match fields.iter_mut().find(|(k, _)| k == key) {
            Some((_, slot)) => *slot = value.into(),
            None => fields.push((key.to_string(), value.into())),
        }
        self
    }

    /// The value of `key` (the first, if duplicated); `None` on a
    /// missing key or a non-object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        let Json::Obj(fields) = self else { return None };
        fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// An exact non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        let Json::Int(v) = *self else { return None };
        Some(v)
    }

    /// Any number, as an `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Json::Int(v) => Some(v as f64),
            Json::Num(v) => Some(v),
            _ => None,
        }
    }

    /// A string's content.
    pub fn as_str(&self) -> Option<&str> {
        let Json::Str(s) = self else { return None };
        Some(s)
    }

    /// An array's elements.
    pub fn as_arr(&self) -> Option<&[Json]> {
        let Json::Arr(items) = self else { return None };
        Some(items)
    }

    /// One element per line, indented two spaces a level, in every
    /// container nested fewer than `depth` levels deep; deeper ones stay
    /// compact. Depth 0 is the compact form [`Display`](fmt::Display)
    /// writes.
    pub fn to_lines(&self, depth: usize) -> String {
        let mut out = String::new();
        self.write(&mut out, depth, 0);
        out
    }

    fn write(&self, out: &mut String, depth: usize, level: usize) {
        let (open, close, items): (_, _, Vec<(Option<&String>, &Json)>) = match self {
            Json::Arr(items) => ('[', ']', items.iter().map(|v| (None, v)).collect()),
            Json::Obj(fields) => ('{', '}', fields.iter().map(|(k, v)| (Some(k), v)).collect()),
            Json::Str(s) => return write_str(out, s),
            Json::Int(v) => return out.push_str(&v.to_string()),
            Json::Bool(b) => return out.push_str(&b.to_string()),
            // `{:?}` prints the shortest text that parses back to `v`, with
            // a `.` or an exponent, so it reads back as `Num`.
            Json::Num(v) if v.is_finite() => return out.push_str(&format!("{v:?}")),
            Json::Num(_) | Json::Null => return out.push_str("null"),
        };
        let newline = |out: &mut String, indent: usize| {
            if level < depth {
                out.push('\n');
                out.push_str(&"  ".repeat(indent));
            }
        };
        out.push(open);
        for (i, (key, value)) in items.iter().enumerate() {
            out.push_str(if i > 0 { "," } else { "" });
            newline(out, level + 1);
            if let Some(key) = key {
                write_str(out, key);
                out.push(':');
            }
            value.write(out, depth, level + 1);
        }
        if !items.is_empty() {
            newline(out, level);
        }
        out.push(close);
    }

    /// Parses one document (surrounding whitespace allowed).
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser { s: text, i: 0 };
        let v = p.value(0)?;
        if p.peek().is_some() {
            return p.err("trailing characters");
        }
        Ok(v)
    }
}

/// The compact rendering, `to_lines(0)`.
impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_lines(0))
    }
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' | '\\' => out.extend(['\\', c]),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

macro_rules! from {
    ($($t:ty => |$v:ident| $e:expr),*) => {
        $(impl From<$t> for Json {
            fn from($v: $t) -> Json {
                $e
            }
        })*
    };
}

from! {
    bool => |v| Json::Bool(v),
    u32 => |v| Json::Int(v.into()),
    u64 => |v| Json::Int(v),
    usize => |v| Json::Int(v as u64),
    f64 => |v| Json::Num(v),
    &str => |v| Json::Str(v.to_string()),
    String => |v| Json::Str(v)
}

/// `None` is `null`.
impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Json {
        v.map_or(Json::Null, Into::into)
    }
}

impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(v: Vec<T>) -> Json {
        Json::Arr(v.into_iter().map(Into::into).collect())
    }
}

struct Parser<'a> {
    s: &'a str,
    i: usize,
}

impl Parser<'_> {
    fn err<T>(&self, what: &str) -> Result<T, String> {
        Err(format!("{what} at byte {}", self.i))
    }

    /// The next byte after any whitespace.
    fn peek(&mut self) -> Option<u8> {
        while self.s.as_bytes().get(self.i).is_some_and(u8::is_ascii_whitespace) {
            self.i += 1;
        }
        self.s.as_bytes().get(self.i).copied()
    }

    /// Consumes `c` if it is the next byte after any whitespace.
    fn eat(&mut self, c: u8) -> bool {
        let hit = self.peek() == Some(c);
        if hit {
            self.i += 1;
        }
        hit
    }

    fn value(&mut self, depth: usize) -> Result<Json, String> {
        if depth > MAX_DEPTH {
            return self.err("nesting too deep");
        }
        let close = match self.peek() {
            Some(b'"') => return self.string().map(Json::Str),
            Some(b'[') => b']',
            Some(b'{') => b'}',
            _ => return self.scalar(),
        };
        self.i += 1;
        let (mut items, mut fields) = (Vec::new(), Vec::new());
        if !self.eat(close) {
            loop {
                if close == b']' {
                    items.push(self.value(depth + 1)?);
                } else {
                    let key = self.string()?;
                    if !self.eat(b':') {
                        return self.err("expected ':'");
                    }
                    fields.push((key, self.value(depth + 1)?));
                }
                if self.eat(close) {
                    break;
                }
                if !self.eat(b',') {
                    return self.err("expected ',' or a closing bracket");
                }
            }
        }
        Ok(if close == b']' { Json::Arr(items) } else { Json::Obj(fields) })
    }

    fn scalar(&mut self) -> Result<Json, String> {
        let start = self.i;
        let token = |c: &u8| c.is_ascii_alphanumeric() || b"+-.".contains(c);
        while self.s.as_bytes().get(self.i).is_some_and(token) {
            self.i += 1;
        }
        match &self.s[start..self.i] {
            "true" => Ok(Json::Bool(true)),
            "false" => Ok(Json::Bool(false)),
            "null" => Ok(Json::Null),
            text => match (text.parse::<u64>(), text.parse::<f64>()) {
                (Ok(v), _) => Ok(Json::Int(v)),
                (_, Ok(v)) if v.is_finite() => Ok(Json::Num(v)),
                _ => Err(format!("bad value at byte {start}")),
            },
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if self.peek() != Some(b'"') {
            return self.err("expected a string");
        }
        let mut out = String::new();
        let mut chars = self.s[self.i + 1..].char_indices();
        while let Some((at, c)) = chars.next() {
            let c = match c {
                '"' => {
                    self.i += at + 2;
                    return Ok(out);
                }
                '\\' => match chars.next() {
                    Some((_, 'n')) => '\n',
                    Some((_, 't')) => '\t',
                    Some((_, 'r')) => '\r',
                    Some((_, 'b')) => '\u{8}',
                    Some((_, 'f')) => '\u{c}',
                    Some((_, 'u')) => {
                        let hex: String = chars.by_ref().take(4).map(|(_, h)| h).collect();
                        let code = u32::from_str_radix(&hex, 16).ok().and_then(char::from_u32);
                        code.ok_or("bad \\u escape")?
                    }
                    Some((_, other)) => other,
                    None => break,
                },
                c => c,
            };
            out.push(c);
        }
        self.err("unterminated string")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Json {
        Json::obj()
            .set("seed", 18_446_744_073_709u64)
            .set("fingerprint", u64::MAX)
            .set("smoke", false)
            .set("note", "tab\there \"quoted\" back\\slash\nnewline \u{1} cafe\u{301}")
            .set("empty", Json::Arr(vec![]))
            .set("list", vec![Json::Num(-0.5), Json::Null, Json::Num(1e-9), Json::Num(2.0)])
            .set(
                "metric",
                Json::obj().set("value", 1.2034).set("unit", "ms").set("none", None::<u64>),
            )
    }

    #[test]
    fn writer_and_reader_round_trip_in_every_layout() {
        let doc = sample();
        for depth in 0..4 {
            let text = doc.to_lines(depth);
            assert_eq!(Json::parse(&text).expect("own output must parse"), doc, "{text}");
        }
        assert_eq!(doc.to_string(), doc.to_lines(0));
        let metric = doc.get("metric").expect("nested object");
        assert_eq!(metric.get("unit").and_then(Json::as_str), Some("ms"));
        assert_eq!(metric.get("none"), Some(&Json::Null));
        assert_eq!(doc.get("list").and_then(Json::as_arr).map(<[Json]>::len), Some(4));
    }

    #[test]
    fn integers_stay_exact_past_two_to_the_53() {
        let doc = Json::parse(&sample().to_string()).expect("parses");
        assert_eq!(doc.get("fingerprint").and_then(Json::as_u64), Some(u64::MAX));
        assert_eq!(Json::parse("18446744073709551615"), Ok(Json::Int(u64::MAX)));
        // One past u64::MAX is still a number, just not an exact one.
        assert_eq!(Json::parse("18446744073709551616").ok().and_then(|j| j.as_u64()), None);
        assert_eq!(Json::parse("-3").map(|j| j.as_f64()), Ok(Some(-3.0)));
    }

    #[test]
    fn layouts_put_one_element_per_line_down_to_the_depth() {
        let doc = Json::obj().set("a", 1u64).set("rows", vec![vec![1u64, 2], vec![]]);
        assert_eq!(doc.to_string(), r#"{"a":1,"rows":[[1,2],[]]}"#);
        assert_eq!(doc.to_lines(1), "{\n  \"a\":1,\n  \"rows\":[[1,2],[]]\n}");
        assert_eq!(doc.to_lines(2), "{\n  \"a\":1,\n  \"rows\":[\n    [1,2],\n    []\n  ]\n}");
    }

    #[test]
    fn fixed_equals_what_the_format_printed_and_non_finite_is_null() {
        for (v, digits) in [(47.811_234, 3), (1.0 / 3.0, 6), (1.234_567_891e-5, 9), (8.0, 4)] {
            let text = format!("{v:.digits$}");
            let written = Json::fixed(v, digits).to_string();
            let back: f64 = written.parse().expect("a number");
            assert_eq!(back, text.parse::<f64>().unwrap(), "{v} at {digits}: {written}");
        }
        let doc = Json::obj().set("count", 54525u64).set("nan", f64::NAN).set("inf", f64::INFINITY);
        assert_eq!(doc.to_string(), r#"{"count":54525,"nan":null,"inf":null}"#);
    }

    #[test]
    fn malformed_documents_are_errors_not_panics() {
        let deep = "[".repeat(100_000);
        let huge = "9".repeat(400);
        for bad in [
            "",
            "{",
            "{\"a\" 1}",
            "[1,]",
            "{\"a\":1} x",
            "\"open",
            "\"bad \\u12\"",
            "1e400",
            "nul",
            "{1:2}",
            &deep,
            &huge,
        ] {
            assert!(Json::parse(bad).is_err(), "{:?} must not parse", &bad[..bad.len().min(20)]);
        }
        // The depth limit is generous for real documents.
        let nested = format!("{}1{}", "[".repeat(100), "]".repeat(100));
        assert!(Json::parse(&nested).is_ok());
    }
}
