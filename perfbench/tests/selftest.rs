//! Small-size self-test of the benchmark: every metric `BENCHMARK.json` names is emitted
//! with its unit and a finite value, and no operation fails.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;

/// A parsed JSON value: just enough of JSON for `BENCHMARK.json` and the result line.
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(m) => m.get(key).unwrap_or_else(|| panic!("no key {key}")),
            other => panic!("not an object: {other:?}"),
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            other => panic!("not a string: {other:?}"),
        }
    }

    fn num(&self) -> f64 {
        match self {
            Json::Num(n) => *n,
            other => panic!("not a number: {other:?}"),
        }
    }
}

fn parse(text: &str) -> Json {
    let mut p = Parser {
        s: text.as_bytes(),
        i: 0,
    };
    let v = p.value();
    p.ws();
    assert_eq!(p.i, p.s.len(), "trailing input after JSON value");
    v
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) {
        self.ws();
        assert_eq!(self.s[self.i] as char, c as char, "at byte {}", self.i);
        self.i += 1;
    }

    fn value(&mut self) -> Json {
        self.ws();
        match self.s[self.i] {
            b'{' => {
                self.i += 1;
                let mut m = BTreeMap::new();
                self.ws();
                if self.s[self.i] == b'}' {
                    self.i += 1;
                    return Json::Obj(m);
                }
                loop {
                    self.ws();
                    let Json::Str(k) = self.value() else {
                        panic!("object key is not a string")
                    };
                    self.eat(b':');
                    let v = self.value();
                    assert!(m.insert(k.clone(), v).is_none(), "duplicate key {k}");
                    self.ws();
                    self.i += 1;
                    if self.s[self.i - 1] == b'}' {
                        return Json::Obj(m);
                    }
                }
            }
            b'[' => {
                self.i += 1;
                let mut a = Vec::new();
                self.ws();
                if self.s[self.i] == b']' {
                    self.i += 1;
                    return Json::Arr(a);
                }
                loop {
                    a.push(self.value());
                    self.ws();
                    self.i += 1;
                    if self.s[self.i - 1] == b']' {
                        return Json::Arr(a);
                    }
                }
            }
            b'"' => {
                let start = self.i + 1;
                self.i = start;
                while self.s[self.i] != b'"' {
                    assert_ne!(self.s[self.i], b'\\', "escapes are not used here");
                    self.i += 1;
                }
                self.i += 1;
                Json::Str(String::from_utf8(self.s[start..self.i - 1].to_vec()).unwrap())
            }
            b't' | b'f' | b'n' => {
                for (word, v) in [
                    ("true", Json::Bool(true)),
                    ("false", Json::Bool(false)),
                    ("null", Json::Null),
                ] {
                    if self.s[self.i..].starts_with(word.as_bytes()) {
                        self.i += word.len();
                        return v;
                    }
                }
                panic!("bad literal at byte {}", self.i)
            }
            _ => {
                let start = self.i;
                while self.i < self.s.len() && b"+-.eE0123456789".contains(&self.s[self.i]) {
                    self.i += 1;
                }
                let text = std::str::from_utf8(&self.s[start..self.i]).unwrap();
                Json::Num(text.parse().unwrap_or_else(|_| panic!("bad number {text}")))
            }
        }
    }
}

fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR")).parent().unwrap()
}

fn benchmark() -> Json {
    parse(&std::fs::read_to_string(repo_root().join("BENCHMARK.json")).unwrap())
}

/// `(name, unit)` of every metric of one section of `BENCHMARK.json`.
fn expected(section: &str) -> BTreeMap<String, String> {
    let Json::Arr(list) = benchmark().get(section).clone() else {
        panic!("{section} is not a list")
    };
    list.iter()
        .map(|m| {
            (
                m.get("name").str().to_string(),
                m.get("unit").str().to_string(),
            )
        })
        .collect()
}

/// Run the benchmark and return its result line, checked against the contract.
fn run(workload: &str, trace: &str, seconds: &str) -> Json {
    let out = Command::new(env!("CARGO_BIN_EXE_usf-perfbench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", seconds])
        .args(["--trace", trace])
        .current_dir(repo_root())
        .output()
        .unwrap();
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        out.status.success(),
        "{workload}: exit {:?}\n{stdout}",
        out.status
    );
    let result = parse(stdout.lines().last().unwrap());
    let Json::Obj(top) = &result else {
        panic!("result is not an object")
    };
    let keys: Vec<&str> = top.keys().map(String::as_str).collect();
    assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
    assert_eq!(result.get("correct"), &Json::Bool(true), "{stdout}");
    let attempted = result.get("attempted").num();
    let failed = result.get("failed").num();
    assert!(attempted >= 1.0 && attempted.fract() == 0.0, "{attempted}");
    assert_eq!(
        failed / attempted,
        0.0,
        "failed_share of {workload}\n{stdout}"
    );
    result
}

/// The result's metrics are exactly `want`, with their units and finite values.
fn assert_metrics(result: &Json, want: &BTreeMap<String, String>, what: &str) {
    let Json::Obj(metrics) = result.get("metrics") else {
        panic!("metrics is not an object")
    };
    let names: Vec<&String> = metrics.keys().collect();
    assert_eq!(names, want.keys().collect::<Vec<_>>(), "{what}");
    for (name, m) in metrics {
        assert_eq!(m.get("unit").str(), want[name], "{what}: unit of {name}");
        let v = m.get("value");
        assert!(
            matches!(v, Json::Num(x) if x.is_finite()),
            "{what}: {name} = {v:?}"
        );
    }
}

/// Every workload the benchmark runs, gated in `BENCHMARK.json` or not.
const WORKLOADS: [&str; 4] = ["hpc-pair", "service-batch", "handoff", "sim-matrix"];

#[test]
fn every_workload_emits_every_end_to_end_metric_without_failures() {
    let want = expected("end_to_end");
    let Json::Arr(gated) = benchmark().get("workloads").clone() else {
        panic!("workloads is not a list")
    };
    for w in &gated {
        assert!(WORKLOADS.contains(&w.get("name").str()));
    }
    for name in WORKLOADS {
        assert_metrics(&run(name, "0", "2"), &want, name);
    }
}

#[test]
fn the_traced_run_emits_every_per_layer_metric_and_its_spans() {
    let result = run("handoff", "1", "1");
    assert_metrics(&result, &expected("per_layer"), "traced run");
    let spans = std::fs::read_to_string(repo_root().join("perfbench/out/spans.tsv")).unwrap();
    assert!(spans.starts_with("# host {\"nproc\":"));
    for name in ["core.recv", "runtimes.pool_run", "simsched.run"] {
        assert!(spans.contains(&format!("\t{name}\t")), "no {name} span");
    }
}

#[test]
fn bad_arguments_are_refused() {
    for args in [
        &[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
        &["--workload", "handoff", "--seed", "1", "--seconds", "1"][..],
        &[
            "--workload",
            "handoff",
            "--seed",
            "1",
            "--seconds",
            "0",
            "--trace",
            "0",
        ][..],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_usf-perfbench"))
            .args(args)
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
