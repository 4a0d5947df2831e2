//! The benchmark's trajectory: every committed `BENCH_<n>.json` read back,
//! each workload's end-to-end metrics and exact counts printed across the
//! files, and the counts of the newest file held against the file before
//! it. Timings are printed and never gated: under a shared host only counts
//! can judge a change.
//!
//! The workspace has no JSON crate, so [`Json`] is a minimal reader of the
//! subset the benchmark writes: objects, arrays, strings without unicode
//! escapes, numbers, booleans and null.

use std::collections::BTreeMap;
use std::path::Path;

use crate::Table;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parse a whole document.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            s: text.as_bytes(),
            i: 0,
        };
        let v = p.value()?;
        p.ws();
        match p.i == p.s.len() {
            true => Ok(v),
            false => Err(format!("trailing bytes at {}", p.i)),
        }
    }

    /// An object's member.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// An object's members, in file order (none for any other value).
    pub fn members(&self) -> &[(String, Json)] {
        match self {
            Json::Obj(members) => members,
            _ => &[],
        }
    }

    pub fn num(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.s.get(self.i).is_some_and(u8::is_ascii_whitespace) {
            self.i += 1;
        }
    }

    fn eat(&mut self, b: u8) -> Result<(), String> {
        self.ws();
        match self.s.get(self.i) {
            Some(&c) if c == b => {
                self.i += 1;
                Ok(())
            }
            c => Err(format!(
                "expected {:?} at {}, found {c:?}",
                b as char, self.i
            )),
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.ws();
        let rest = &self.s[self.i..];
        for (word, v) in [
            ("null", Json::Null),
            ("true", Json::Bool(true)),
            ("false", Json::Bool(false)),
        ] {
            if rest.starts_with(word.as_bytes()) {
                self.i += word.len();
                return Ok(v);
            }
        }
        match rest.first() {
            Some(b'{') => self
                .seq(b'{', b'}', |p| {
                    let key = p.string()?;
                    p.eat(b':')?;
                    Ok((key, p.value()?))
                })
                .map(Json::Obj),
            Some(b'[') => self.seq(b'[', b']', Parser::value).map(Json::Arr),
            Some(b'"') => self.string().map(Json::Str),
            _ => {
                let len = rest
                    .iter()
                    .take_while(|c| c.is_ascii_digit() || b"+-.eE".contains(c))
                    .count();
                let num = std::str::from_utf8(&rest[..len]).expect("ASCII");
                self.i += len;
                num.parse()
                    .map(Json::Num)
                    .map_err(|_| format!("bad value at {}", self.i - len))
            }
        }
    }

    /// `open item (, item)* close`, or `open close`.
    fn seq<T>(
        &mut self,
        open: u8,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        self.eat(open)?;
        let mut items = Vec::new();
        self.ws();
        if self.s.get(self.i) == Some(&close) {
            self.i += 1;
            return Ok(items);
        }
        loop {
            items.push(item(self)?);
            self.ws();
            if self.s.get(self.i) == Some(&close) {
                self.i += 1;
                return Ok(items);
            }
            self.eat(b',')?;
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = Vec::new();
        loop {
            let c = *self.s.get(self.i).ok_or("unterminated string")?;
            self.i += 1;
            out.push(match c {
                b'"' => return String::from_utf8(out).map_err(|e| e.to_string()),
                b'\\' => {
                    self.i += 1;
                    match self.s.get(self.i - 1) {
                        Some(b'n') => b'\n',
                        Some(b't') => b'\t',
                        Some(&e @ (b'"' | b'\\' | b'/')) => e,
                        _ => return Err(format!("unsupported escape at {}", self.i)),
                    }
                }
                c => c,
            });
        }
    }
}

/// The end-to-end metrics, in `BENCHMARK.json` order.
pub const END_TO_END: [&str; 4] = [
    "throughput_ops_s",
    "nvmm_bytes_per_user_byte",
    "peak_rss_mb",
    "setup_s",
];

/// The gated metrics (a name or a name prefix ending in `.`) and the
/// relative amount by which the newest file may be worse than the one
/// before it: 0 for the exact counts, 2 % for the bytes written per user
/// byte and for the peak RSS (which repeats to within 0.6 % between files).
/// Every one is better lower (better nearer zero, for the label sum minus
/// the device's count).
pub const GATED: [(&str, f64); 9] = [
    ("kvstore.commit_writes_pwbs_per_op.", 0.0),
    ("kvstore.commit_writes_fences_per_op.", 0.0),
    ("core.fa_fences_per_group", 0.0),
    ("kvstore.grid_read_device_reads", 0.0),
    ("pmem.reads_per_op", 0.0),
    ("core.recovery_live_objects", 0.0),
    ("obs.label_sum_minus_device", 0.0),
    ("nvmm_bytes_per_user_byte", 0.02),
    ("peak_rss_mb", 0.02),
];

/// The per-write counts printed beside the gated ones and never gated:
/// they depend on how the committer's groups form, which moves with the
/// host's timing.
pub const PRINTED: [&str; 3] = [
    "server.ops_per_group",
    "pmem.pwbs_per_acked_write",
    "pmem.fences_per_acked_write",
];

/// One `BENCH_<n>.json`: per workload, every metric by name.
#[derive(Debug)]
pub struct BenchFile {
    pub n: u64,
    pub workloads: BTreeMap<String, BTreeMap<String, f64>>,
}

impl BenchFile {
    /// Read a file's workloads, end-to-end and per-layer metrics together.
    pub fn parse(n: u64, text: &str) -> Result<BenchFile, String> {
        let doc = Json::parse(text)?;
        let workloads = doc.get("workloads").ok_or("no \"workloads\"")?;
        let mut out = BTreeMap::new();
        for (name, w) in workloads.members() {
            let mut metrics = BTreeMap::new();
            for part in ["end_to_end", "per_layer"] {
                let part = w.get(part).and_then(|p| p.get("metrics"));
                for (metric, m) in part.map_or(&[][..], Json::members) {
                    if let Some(v) = m.get("value").and_then(Json::num) {
                        metrics.insert(metric.clone(), v);
                    }
                }
            }
            out.insert(name.clone(), metrics);
        }
        Ok(BenchFile { n, workloads: out })
    }

    fn metric(&self, workload: &str, metric: &str) -> Option<f64> {
        self.workloads.get(workload)?.get(metric).copied()
    }
}

/// Every `BENCH_<n>.json` in `dir`, in ascending `n`.
pub fn load_dir(dir: &Path) -> Result<Vec<BenchFile>, String> {
    let mut files = Vec::new();
    for entry in std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))? {
        let path = entry.map_err(|e| e.to_string())?.path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        let n = name
            .strip_prefix("BENCH_")
            .and_then(|n| n.strip_suffix(".json"));
        if let Some(n) = n.and_then(|n| n.parse().ok()) {
            let text = std::fs::read_to_string(&path).map_err(|e| format!("{name}: {e}"))?;
            files.push(BenchFile::parse(n, &text).map_err(|e| format!("{name}: {e}"))?);
        }
    }
    files.sort_by_key(|f| f.n);
    Ok(files)
}

/// The gated metrics a workload reports, in name order.
fn gated_names(file: &BenchFile, workload: &str) -> Vec<(String, f64)> {
    let metrics = file.workloads.get(workload).into_iter().flatten();
    let gate = |name: &str| {
        GATED
            .iter()
            .find(|(g, _)| name == *g || (g.ends_with('.') && name.starts_with(g)))
    };
    metrics
        .filter_map(|(name, _)| gate(name).map(|(_, bound)| (name.clone(), *bound)))
        .collect()
}

fn cell(v: Option<f64>) -> String {
    match v {
        Some(v) if v == v.trunc() && v.abs() < 1e15 => format!("{v:.0}"),
        Some(v) => format!("{v:.4}"),
        None => "-".into(),
    }
}

/// Per workload of the newest file: its end-to-end metrics across the
/// files, one row per file, then its gated metrics and the [`PRINTED`]
/// ones it reports, one row per metric.
pub fn report(files: &[BenchFile]) -> String {
    let Some(newest) = files.last() else {
        return "no BENCH_*.json files\n".into();
    };
    let mut out = String::new();
    for workload in newest.workloads.keys() {
        out.push_str(&format!("\n## {workload}\n"));
        let mut header = vec!["file"];
        header.extend(END_TO_END);
        let mut t = Table::new(&header);
        for f in files {
            let mut row = vec![format!("BENCH_{}", f.n)];
            row.extend(END_TO_END.map(|m| cell(f.metric(workload, m))));
            t.row(&row);
        }
        out.push_str(&t.render());
        let names: Vec<String> = files.iter().map(|f| format!("{}", f.n)).collect();
        let mut header = vec!["count"];
        header.extend(names.iter().map(String::as_str));
        let mut t = Table::new(&header);
        let gated = gated_names(newest, workload)
            .into_iter()
            .map(|(m, _)| (m.clone(), m));
        let printed = PRINTED
            .iter()
            .filter(|m| newest.metric(workload, m).is_some())
            .map(|m| (format!("{m} (not gated)"), m.to_string()));
        for (label, metric) in gated.chain(printed) {
            let mut row = vec![label];
            row.extend(files.iter().map(|f| cell(f.metric(workload, &metric))));
            t.row(&row);
        }
        out.push('\n');
        out.push_str(&t.render());
    }
    out
}

/// The gated metrics of `newest` that are worse than in `prev` by more
/// than their bound, one line each. A metric or workload missing from
/// either file is not compared.
pub fn regressions(prev: &BenchFile, newest: &BenchFile) -> Vec<String> {
    let mut out = Vec::new();
    for workload in newest.workloads.keys() {
        for (metric, bound) in gated_names(newest, workload) {
            let (Some(old), Some(new)) = (
                prev.metric(workload, &metric),
                newest.metric(workload, &metric),
            ) else {
                continue;
            };
            if new.abs() > old.abs() * (1.0 + bound) + 1e-9 {
                out.push(format!(
                    "{workload} {metric}: BENCH_{} {} -> BENCH_{} {} (bound {:.0} %)",
                    prev.n,
                    cell(Some(old)),
                    newest.n,
                    cell(Some(new)),
                    bound * 100.0
                ));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(n: u64, metrics: &str) -> BenchFile {
        let text = format!(
            r#"{{"seconds": 9, "workloads": {{"w": {{"end_to_end": {{"metrics": {{"setup_s": {{"unit": "s", "value": 1.5}}}}}},
            "per_layer": {{"correct": true, "metrics": {{{metrics}}}}}}}}}}}"#
        );
        BenchFile::parse(n, &text).unwrap()
    }

    #[test]
    fn parses_the_benchmarks_subset() {
        let v = Json::parse(r#" {"a": [1, -2.5e3, "x\"y", true, null, {}], "b": []} "#).unwrap();
        let a = match v.get("a") {
            Some(Json::Arr(a)) => a.clone(),
            other => panic!("{other:?}"),
        };
        assert_eq!(a[1], Json::Num(-2500.0));
        assert_eq!(a[2], Json::Str("x\"y".into()));
        assert_eq!(a[3..], [Json::Bool(true), Json::Null, Json::Obj(vec![])]);
        assert_eq!(v.get("b"), Some(&Json::Arr(vec![])));
        assert!(Json::parse("{\"a\": 1,}").is_err());
        assert!(Json::parse("[1] 2").is_err());
    }

    #[test]
    fn gates_counts_only_and_the_worse_way() {
        let count = |v: f64| {
            format!(
                r#""core.fa_fences_per_group": {{"value": {v}}}, "pmem.pwb_ns": {{"value": {v}}}"#
            )
        };
        let (a, b) = (file(1, &count(4.0)), file(2, &count(5.0)));
        assert_eq!(b.metric("w", "setup_s"), Some(1.5));
        let found = regressions(&a, &b);
        assert_eq!(found.len(), 1, "{found:?}");
        assert!(found[0].contains("core.fa_fences_per_group"), "{found:?}");
        assert!(regressions(&b, &a).is_empty(), "fewer is better");
        let bytes = |v: f64| format!(r#""nvmm_bytes_per_user_byte": {{"value": {v}}}"#);
        assert!(regressions(&file(1, &bytes(1.0)), &file(2, &bytes(1.019))).is_empty());
        assert_eq!(
            regressions(&file(1, &bytes(1.0)), &file(2, &bytes(1.03))).len(),
            1
        );
    }

    #[test]
    fn gates_peak_rss_by_two_percent() {
        let rss = |v: f64| file(0, &format!(r#""peak_rss_mb": {{"value": {v}}}"#));
        assert!(regressions(&rss(90.0), &rss(90.9)).is_empty(), "1 % more");
        let found = regressions(&rss(90.0), &rss(92.7));
        assert_eq!(found.len(), 1, "3 % more: {found:?}");
        assert!(found[0].contains("peak_rss_mb"), "{found:?}");
        assert!(
            regressions(&rss(90.0), &rss(80.0)).is_empty(),
            "less is better"
        );
    }

    #[test]
    fn per_write_counts_are_printed_and_never_gated() {
        let counts = |v: f64| {
            let metrics = PRINTED.map(|m| format!(r#""{m}": {{"value": {v}}}"#));
            file(0, &metrics.join(", "))
        };
        let (good, bad) = (counts(1.0), counts(100.0));
        assert!(regressions(&good, &bad).is_empty(), "worse, not gated");
        let report = report(&[good, bad]);
        for m in PRINTED {
            assert!(report.contains(&format!("{m} (not gated)")), "{report}");
        }
    }

    #[test]
    fn the_committed_files_parse() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let files = load_dir(&root).unwrap();
        assert!(files.len() >= 2);
        let report = report(&files);
        assert!(
            report.contains("kvstore.commit_writes_pwbs_per_op.b64"),
            "{report}"
        );
    }
}
