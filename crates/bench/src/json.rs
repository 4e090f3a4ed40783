//! A dependency-free JSON writer, parser and the validators of the
//! committed `BENCH_table5.json` and `SECCOMP_PROFILES.json` documents.
//!
//! The bench crate must not pull serde into the workspace, so the
//! machine-readable results file is produced and checked with this small
//! hand-rolled subset: objects, arrays, strings, finite numbers, booleans
//! and null — exactly what the table emitter needs, round-trippable by
//! any real JSON tool.

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (parsed as f64).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object; insertion order is preserved.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Member lookup on an object; `None` on other variants.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The members, if this is an object.
    pub fn as_obj(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Obj(members) => Some(members),
            _ => None,
        }
    }

    /// Serializes to compact JSON text.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Num(n) => {
                // NaN/inf have no JSON representation; emit null so the
                // document stays parseable whatever the measurement did.
                if n.is_finite() {
                    out.push_str(&format!("{}", n));
                } else {
                    out.push_str("null");
                }
            }
            Value::Str(s) => {
                out.push('"');
                out.push_str(&escape(s));
                out.push('"');
            }
            Value::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write(out);
                }
                out.push(']');
            }
            Value::Obj(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('"');
                    out.push_str(&escape(k));
                    out.push_str("\":");
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

/// Escapes a string for inclusion between JSON quotes.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Parses JSON text into a [`Value`].
pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing garbage at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let hex = std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?;
                            let code =
                                u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
                            out.push(char::from_u32(code).ok_or("non-scalar \\u escape")?);
                            self.pos += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (the input is a &str, so the
                    // byte stream is valid UTF-8 by construction).
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest).map_err(|e| e.to_string())?;
                    let c = s.chars().next().unwrap();
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E') {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        text.parse::<f64>()
            .map(Value::Num)
            .map_err(|_| format!("bad number {:?} at byte {}", text, start))
    }

    fn array(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let v = self.value()?;
            members.push((key, v));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(members));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }
}

/// The schema tag of Table 5 documents: the document carries
/// `runs_per_mode` and every micro row carries its per-run samples.
pub const TABLE5_SCHEMA_V2: &str = "bench_table5/v2";

/// The per-row overhead budget enforced on every micro row of a full
/// (non-quick) Table 5 document, in percent.
pub const MICRO_BUDGET_PCT: f64 = 10.0;

/// The overhead budget for the `dispatch_seccomp` section of a full
/// (non-quick) Table 5 document, in percent: an enforcing
/// seccomp profile's flat array lookup must stay within 1% of the bare
/// dispatch row.
pub const DISPATCH_SECCOMP_BUDGET_PCT: f64 = 1.0;

fn require_num(row: &Value, field: &str, ctx: &str) -> Result<f64, String> {
    row.get(field)
        .and_then(Value::as_f64)
        .filter(|n| n.is_finite())
        .ok_or_else(|| format!("{}: field {:?} missing or not a finite number", ctx, field))
}

/// Checks the named row array is non-empty with a name and positive
/// finite medians on every row, and returns it.
fn require_rows<'a>(doc: &'a Value, key: &str) -> Result<&'a [Value], String> {
    let rows = doc
        .get(key)
        .and_then(Value::as_arr)
        .ok_or_else(|| format!("missing {:?} array", key))?;
    if rows.is_empty() {
        return Err(format!("{:?} array is empty", key));
    }
    for row in rows {
        let name = row
            .get("name")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("{} row without a string name", key))?;
        let ctx = format!("{} row {:?}", key, name);
        let linux = require_num(row, "linux_ns", &ctx)?;
        let protego = require_num(row, "protego_ns", &ctx)?;
        require_num(row, "overhead_pct", &ctx)?;
        if linux <= 0.0 || protego <= 0.0 {
            return Err(format!("{}: non-positive measurement", ctx));
        }
    }
    Ok(rows)
}

fn cache_hits(doc: &Value, name: &str) -> Result<f64, String> {
    let metrics = doc
        .get("cache_metrics")
        .ok_or("missing \"cache_metrics\" object")?;
    let entry = metrics
        .get(name)
        .ok_or_else(|| format!("cache_metrics missing {:?}", name))?;
    require_num(entry, "hits", &format!("cache_metrics.{}", name))
}

/// Validates a `BENCH_table5.json` document against the acceptance
/// criteria: the `bench_table5/v2` schema tag, `runs_per_mode` (>= 3),
/// non-empty numeric micro *and* macro rows, per-run sample arrays of
/// exactly `runs_per_mode` entries on every micro row and on the
/// `dispatch_seccomp` section with each reported median inside its
/// sample range, the two required hot-path rows at ≥2x speedup, and
/// nonzero dcache plus profile-cache hit counters. Full (non-quick)
/// documents must also keep every micro row within [`MICRO_BUDGET_PCT`]
/// and the seccomp row within [`DISPATCH_SECCOMP_BUDGET_PCT`].
pub fn validate_table5(text: &str) -> Result<(), String> {
    let doc = parse(text).map_err(|e| format!("not valid JSON: {}", e))?;
    let schema = doc
        .get("schema")
        .and_then(Value::as_str)
        .ok_or("missing \"schema\" string")?;
    if schema != TABLE5_SCHEMA_V2 {
        return Err(format!(
            "schema {:?}, expected {:?}",
            schema, TABLE5_SCHEMA_V2
        ));
    }
    let micro = require_rows(&doc, "micro")?;
    require_rows(&doc, "macro")?;
    let runs = require_num(&doc, "runs_per_mode", "document")?;
    if runs < 3.0 {
        return Err(format!(
            "runs_per_mode {} below the minimum 3 for a median to discard outliers",
            runs
        ));
    }
    let quick = matches!(doc.get("quick"), Some(Value::Bool(true)));
    for row in micro {
        let name = row.get("name").and_then(Value::as_str).unwrap_or_default();
        let ctx = format!("micro row {:?}", name);
        require_run_samples(row, "linux_runs_ns", "linux_ns", runs, &ctx)?;
        require_run_samples(row, "protego_runs_ns", "protego_ns", runs, &ctx)?;
        if !quick {
            let overhead = require_num(row, "overhead_pct", &ctx)?;
            if overhead > MICRO_BUDGET_PCT {
                return Err(format!(
                    "{}: overhead {:.2}% exceeds the {:.0}% micro budget",
                    ctx, overhead, MICRO_BUDGET_PCT
                ));
            }
        }
    }

    let row = doc
        .get("dispatch_seccomp")
        .ok_or("missing \"dispatch_seccomp\" object")?;
    let ctx = "dispatch_seccomp";
    require_run_samples(row, "base_runs_ns", "base_ns", runs, ctx)?;
    require_run_samples(row, "seccomp_runs_ns", "seccomp_ns", runs, ctx)?;
    if !quick {
        let overhead = require_num(row, "overhead_pct", ctx)?;
        if overhead > DISPATCH_SECCOMP_BUDGET_PCT {
            return Err(format!(
                "{}: overhead {:.2}% exceeds the {:.0}% seccomp hot-path budget",
                ctx, overhead, DISPATCH_SECCOMP_BUDGET_PCT
            ));
        }
    }

    let hotpath = doc
        .get("hotpath")
        .and_then(Value::as_arr)
        .ok_or("missing \"hotpath\" array")?;
    for required in ["path_resolution", "file_open"] {
        let row = hotpath
            .iter()
            .find(|r| r.get("name").and_then(Value::as_str) == Some(required))
            .ok_or_else(|| format!("hotpath missing required row {:?}", required))?;
        let ctx = format!("hotpath row {:?}", required);
        require_num(row, "before_ns", &ctx)?;
        require_num(row, "after_ns", &ctx)?;
        let speedup = require_num(row, "speedup", &ctx)?;
        if speedup < 2.0 {
            return Err(format!(
                "{}: speedup {:.2}x below the required 2x",
                ctx, speedup
            ));
        }
    }

    if cache_hits(&doc, "dcache")? <= 0.0 {
        return Err("dcache reported zero hits".into());
    }
    let profile_hits = ["apparmor_binary_lookup", "protego_keyfile_lookup"]
        .iter()
        .filter_map(|n| cache_hits(&doc, n).ok())
        .sum::<f64>();
    if profile_hits <= 0.0 {
        return Err("profile caches reported zero hits".into());
    }
    Ok(())
}

/// Checks one per-run sample array of a row: exactly `runs` finite
/// positive samples, with the reported median inside the sample range.
fn require_run_samples(
    row: &Value,
    field: &str,
    median_field: &str,
    runs: f64,
    ctx: &str,
) -> Result<(), String> {
    let arr = row
        .get(field)
        .and_then(Value::as_arr)
        .ok_or_else(|| format!("{}: missing {:?} (rows carry per-run samples)", ctx, field))?;
    if arr.len() != runs as usize {
        return Err(format!(
            "{}: {} has {} samples, document says runs_per_mode={}",
            ctx,
            field,
            arr.len(),
            runs
        ));
    }
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    for v in arr {
        let n = v
            .as_f64()
            .filter(|n| n.is_finite() && *n > 0.0)
            .ok_or_else(|| format!("{}: {} sample is not a finite positive number", ctx, field))?;
        lo = lo.min(n);
        hi = hi.max(n);
    }
    let median = require_num(row, median_field, ctx)?;
    if median < lo || median > hi {
        return Err(format!(
            "{}: {} {} outside its own sample range [{}, {}]",
            ctx, median_field, median, lo, hi
        ));
    }
    Ok(())
}

/// The schema tag of committed `SECCOMP_PROFILES.json` documents.
pub const SECCOMP_SCHEMA: &str = "seccomp_profiles/v1";

/// The acceptance ceiling on the average per-binary ABI reachability a
/// `seccomp_profiles/v1` document may report, in percent.
pub const SECCOMP_AVG_REACHABLE_PCT: f64 = 50.0;

/// Validates a `seccomp_profiles/v1` document (`SECCOMP_PROFILES.json`):
/// schema tag, `abi_count` matching the typed ABI, a non-empty `binaries`
/// array whose entries carry a unique binary path, a duplicate-free
/// allowlist of real ABI syscall names with consistent `count`/`pct`
/// fields, and an `average_pct` that both matches the per-binary numbers
/// and stays under [`SECCOMP_AVG_REACHABLE_PCT`] — the measured
/// attack-surface-reduction acceptance gate.
pub fn validate_seccomp_profiles(text: &str) -> Result<(), String> {
    use sim_kernel::syscall::Syscall;

    let doc = parse(text).map_err(|e| format!("not valid JSON: {}", e))?;
    let schema = doc
        .get("schema")
        .and_then(Value::as_str)
        .ok_or("missing \"schema\" string")?;
    if schema != SECCOMP_SCHEMA {
        return Err(format!(
            "schema {:?}, expected {:?}",
            schema, SECCOMP_SCHEMA
        ));
    }
    let abi = require_num(&doc, "abi_count", "document")?;
    if abi != Syscall::COUNT as f64 {
        return Err(format!(
            "abi_count {} does not match the {}-variant typed ABI",
            abi,
            Syscall::COUNT
        ));
    }
    let binaries = doc
        .get("binaries")
        .and_then(Value::as_arr)
        .ok_or("missing \"binaries\" array")?;
    if binaries.is_empty() {
        return Err("\"binaries\" array is empty (nothing was profiled)".into());
    }
    let mut seen_binaries = std::collections::BTreeSet::new();
    let mut pct_sum = 0.0;
    for b in binaries {
        let binary = b
            .get("binary")
            .and_then(Value::as_str)
            .filter(|s| !s.is_empty())
            .ok_or("binaries entry without a non-empty \"binary\" string")?;
        let ctx = format!("profile {:?}", binary);
        if !seen_binaries.insert(binary.to_string()) {
            return Err(format!("{}: duplicate binary entry", ctx));
        }
        b.get("default")
            .and_then(Value::as_str)
            .filter(|s| !s.is_empty())
            .ok_or_else(|| format!("{}: missing \"default\" action string", ctx))?;
        let calls = b
            .get("syscalls")
            .and_then(Value::as_arr)
            .ok_or_else(|| format!("{}: missing \"syscalls\" array", ctx))?;
        let mut seen_calls = std::collections::BTreeSet::new();
        for c in calls {
            let name = c
                .as_str()
                .ok_or_else(|| format!("{}: non-string syscall entry", ctx))?;
            if Syscall::name_index(name).is_none() {
                return Err(format!("{}: unknown syscall name {:?}", ctx, name));
            }
            if !seen_calls.insert(name) {
                return Err(format!("{}: duplicate syscall {:?}", ctx, name));
            }
        }
        let count = require_num(b, "count", &ctx)?;
        if count != calls.len() as f64 {
            return Err(format!(
                "{}: count {} disagrees with {} listed syscalls",
                ctx,
                count,
                calls.len()
            ));
        }
        let pct = require_num(b, "pct", &ctx)?;
        let expected = count / abi * 100.0;
        if (pct - expected).abs() > 0.05 {
            return Err(format!(
                "{}: pct {:.3} inconsistent with count {} of {} ({:.3})",
                ctx, pct, count, abi, expected
            ));
        }
        pct_sum += pct;
    }
    let average = require_num(&doc, "average_pct", "document")?;
    let expected = pct_sum / binaries.len() as f64;
    if (average - expected).abs() > 0.05 {
        return Err(format!(
            "average_pct {:.3} inconsistent with the per-binary percentages ({:.3})",
            average, expected
        ));
    }
    if average >= SECCOMP_AVG_REACHABLE_PCT {
        return Err(format!(
            "average_pct {:.1} is not under the {:.0}% attack-surface ceiling",
            average, SECCOMP_AVG_REACHABLE_PCT
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let v = Value::Obj(vec![
            ("s".into(), Value::Str("a\"b\\c\nd".into())),
            ("n".into(), Value::Num(-12.5)),
            (
                "a".into(),
                Value::Arr(vec![Value::Null, Value::Bool(true), Value::Num(3.0)]),
            ),
            ("o".into(), Value::Obj(vec![])),
        ]);
        let text = v.render();
        assert_eq!(parse(&text).unwrap(), v);
    }

    #[test]
    fn parses_whitespace_and_escapes() {
        let v = parse(" { \"k\" : [ 1 , \"\\u0041\\n\" , null ] } ").unwrap();
        let arr = v.get("k").unwrap().as_arr().unwrap();
        assert_eq!(arr[0].as_f64(), Some(1.0));
        assert_eq!(arr[1].as_str(), Some("A\n"));
        assert_eq!(arr[2], Value::Null);
    }

    #[test]
    fn rejects_malformed() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{\"a\":1} x").is_err());
        assert!(parse("nul").is_err());
    }

    fn valid_doc() -> String {
        r#"{
          "schema": "bench_table5/v2",
          "quick": false,
          "runs_per_mode": 3,
          "micro": [{"name":"read","linux_ns":90.0,"protego_ns":91.0,"linux_runs_ns":[89.0,90.0,92.0],"protego_runs_ns":[90.5,91.0,93.0],"overhead_pct":1.1,"paper_overhead_pct":0.0}],
          "macro": [{"name":"Postal (msg)","linux_ns":900.0,"protego_ns":910.0,"overhead_pct":1.1,"paper_overhead_pct":null}],
          "hotpath": [
            {"name":"glob_match","before_ns":100.0,"after_ns":10.0,"speedup":10.0},
            {"name":"path_resolution","before_ns":100.0,"after_ns":20.0,"speedup":5.0},
            {"name":"file_open","before_ns":100.0,"after_ns":25.0,"speedup":4.0}
          ],
          "dispatch_seccomp": {"base_ns":200.0,"seccomp_ns":201.0,"overhead_pct":0.5,
            "base_runs_ns":[199.0,200.0,202.0],"seccomp_runs_ns":[200.0,201.0,203.0]},
          "cache_metrics": {
            "dcache": {"hits":10,"misses":2,"invalidations":1},
            "apparmor_binary_lookup": {"hits":5,"misses":1,"invalidations":0}
          }
        }"#
        .to_string()
    }

    #[test]
    fn validator_accepts_a_good_document() {
        validate_table5(&valid_doc()).unwrap();
    }

    #[test]
    fn validator_rejects_slow_hotpath_and_cold_caches() {
        let slow = valid_doc().replace("\"speedup\":5.0", "\"speedup\":1.4");
        assert!(validate_table5(&slow).unwrap_err().contains("below"));
        let cold = valid_doc().replace("\"hits\":10", "\"hits\":0");
        assert!(validate_table5(&cold).unwrap_err().contains("dcache"));
        let wrong_schema = valid_doc().replace("bench_table5/v2", "v0");
        assert!(validate_table5(&wrong_schema).is_err());
        // The best-of-two v1 format is no longer accepted.
        let v1 = valid_doc().replace("bench_table5/v2", "bench_table5/v1");
        assert!(validate_table5(&v1)
            .unwrap_err()
            .contains("expected \"bench_table5/v2\""));
        assert!(validate_table5("not json").is_err());
        let no_macro = valid_doc().replace("\"macro\"", "\"macros\"");
        assert!(validate_table5(&no_macro).unwrap_err().contains("macro"));
        let no_runs = valid_doc().replace("\"runs_per_mode\": 3,", "");
        assert!(validate_table5(&no_runs)
            .unwrap_err()
            .contains("runs_per_mode"));
        let short = valid_doc().replace("[89.0,90.0,92.0]", "[89.0,90.0]");
        assert!(validate_table5(&short).unwrap_err().contains("2 samples"));
    }

    #[test]
    fn validator_enforces_the_micro_budget_on_full_runs_only() {
        let over = valid_doc().replace(
            "\"overhead_pct\":1.1,\"paper_overhead_pct\":0.0",
            "\"overhead_pct\":12.0,\"paper_overhead_pct\":0.0",
        );
        assert!(validate_table5(&over).unwrap_err().contains("micro budget"));
        validate_table5(&over.replace("\"quick\": false", "\"quick\": true")).unwrap();
    }

    #[test]
    fn v2_validator_accepts_and_gates_the_seccomp_dispatch_row() {
        validate_table5(&valid_doc()).unwrap();
        let missing = valid_doc().replace("\"dispatch_seccomp\"", "\"dispatch_secomp\"");
        assert!(validate_table5(&missing)
            .unwrap_err()
            .contains("dispatch_seccomp"));
        let hot = valid_doc().replace("\"overhead_pct\":0.5", "\"overhead_pct\":1.7");
        assert!(validate_table5(&hot)
            .unwrap_err()
            .contains("seccomp hot-path budget"));
        // Quick documents carry the evidence but skip the budget.
        let quick = valid_doc()
            .replace("\"quick\": false", "\"quick\": true")
            .replace("\"overhead_pct\":0.5", "\"overhead_pct\":1.7");
        validate_table5(&quick).unwrap();
        let skewed = valid_doc().replace("\"seccomp_ns\":201.0", "\"seccomp_ns\":250.0");
        assert!(validate_table5(&skewed)
            .unwrap_err()
            .contains("sample range"));
    }

    fn valid_seccomp_doc() -> String {
        r#"{
          "schema": "seccomp_profiles/v1",
          "abi_count": 46,
          "binaries": [
            {"binary":"/bin/ping","default":"deny(EPERM)",
             "syscalls":["socket","sendto","close","getuid"],"count":4,"pct":8.695652173913043},
            {"binary":"/bin/sh","default":"deny(EPERM)",
             "syscalls":["open","read","write","close","fork"],"count":5,"pct":10.869565217391305}
          ],
          "average_pct": 9.782608695652174
        }"#
        .to_string()
    }

    #[test]
    fn seccomp_validator_accepts_a_good_document() {
        validate_seccomp_profiles(&valid_seccomp_doc()).unwrap();
    }

    #[test]
    fn seccomp_validator_enforces_names_consistency_and_ceiling() {
        let bad_name = valid_seccomp_doc().replace("\"sendto\"", "\"frobnicate\"");
        assert!(validate_seccomp_profiles(&bad_name)
            .unwrap_err()
            .contains("frobnicate"));
        let dup_call = valid_seccomp_doc().replace("\"sendto\"", "\"socket\"");
        assert!(validate_seccomp_profiles(&dup_call)
            .unwrap_err()
            .contains("duplicate syscall"));
        let dup_bin = valid_seccomp_doc().replace("/bin/sh", "/bin/ping");
        assert!(validate_seccomp_profiles(&dup_bin)
            .unwrap_err()
            .contains("duplicate binary"));
        let wrong_count = valid_seccomp_doc().replace("\"count\":4", "\"count\":6");
        assert!(validate_seccomp_profiles(&wrong_count)
            .unwrap_err()
            .contains("disagrees"));
        let wrong_abi = valid_seccomp_doc().replace("\"abi_count\": 46", "\"abi_count\": 64");
        assert!(validate_seccomp_profiles(&wrong_abi)
            .unwrap_err()
            .contains("typed ABI"));
        let wrong_avg =
            valid_seccomp_doc().replace("\"average_pct\": 9.78", "\"average_pct\": 19.78");
        assert!(validate_seccomp_profiles(&wrong_avg)
            .unwrap_err()
            .contains("inconsistent"));
        // A consistent document whose single profile reaches 30/46 of the
        // ABI averages 65% — over the 50% attack-surface ceiling.
        use sim_kernel::syscall::Syscall;
        let names: Vec<String> = Syscall::NAMES
            .iter()
            .take(30)
            .map(|n| format!("\"{}\"", n))
            .collect();
        let pct = 30.0 / Syscall::COUNT as f64 * 100.0;
        let wide_open = format!(
            "{{\"schema\":\"seccomp_profiles/v1\",\"abi_count\":{},\"binaries\":[{{\"binary\":\"/bin/wide\",\"default\":\"deny(EPERM)\",\"syscalls\":[{}],\"count\":30,\"pct\":{}}}],\"average_pct\":{}}}",
            Syscall::COUNT,
            names.join(","),
            pct,
            pct
        );
        assert!(validate_seccomp_profiles(&wide_open)
            .unwrap_err()
            .contains("ceiling"));
        assert!(validate_seccomp_profiles("not json").is_err());
    }
}
