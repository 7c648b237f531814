//! What one measured child process reports to the orchestrator: named
//! scalars, named sample lists and output checks, one per line on the
//! child's standard output.

#[derive(Clone, Debug, Default)]
pub struct Record {
    pub scalars: Vec<(String, f64)>,
    pub samples: Vec<(String, Vec<f64>)>,
    /// `(name, passed, detail)`.
    pub checks: Vec<(String, bool, String)>,
}

impl Record {
    pub fn scalar(&mut self, name: impl Into<String>, v: f64) {
        self.scalars.push((name.into(), v));
    }

    pub fn samples(&mut self, name: impl Into<String>, v: Vec<f64>) {
        self.samples.push((name.into(), v));
    }

    pub fn check(&mut self, name: &str, passed: bool, detail: impl Into<String>) {
        self.checks.push((name.to_string(), passed, detail.into()));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.scalars
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    pub fn sample(&self, name: &str) -> &[f64] {
        self.samples
            .iter()
            .find(|(n, _)| n == name)
            .map_or(&[], |(_, v)| v.as_slice())
    }

    pub fn emit(&self) -> String {
        let mut out = String::new();
        for (n, v) in &self.scalars {
            out.push_str(&format!("scalar\t{n}\t{v}\n"));
        }
        for (n, vs) in &self.samples {
            let vs: Vec<String> = vs.iter().map(f64::to_string).collect();
            out.push_str(&format!("samples\t{n}\t{}\n", vs.join(" ")));
        }
        for (n, ok, detail) in &self.checks {
            let detail = detail.replace(['\t', '\n'], " ");
            out.push_str(&format!("check\t{n}\t{}\t{detail}\n", u8::from(*ok)));
        }
        out
    }

    pub fn parse(text: &str) -> Result<Self, String> {
        let mut r = Record::default();
        let num = |s: &str| {
            s.parse::<f64>()
                .map_err(|e| format!("bad number {s:?}: {e}"))
        };
        for line in text.lines() {
            let f: Vec<&str> = line.splitn(4, '\t').collect();
            match f.as_slice() {
                ["scalar", n, v] => r.scalar(*n, num(v)?),
                ["samples", n, vs] => r.samples(
                    *n,
                    vs.split_whitespace().map(num).collect::<Result<_, _>>()?,
                ),
                ["check", n, ok, detail] => r.check(n, *ok == "1", *detail),
                _ => return Err(format!("unrecognized record line {line:?}")),
            }
        }
        Ok(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_exact_values() {
        let mut r = Record::default();
        r.scalar("setup_s", 0.1 + 0.2);
        r.samples("visit_ms", vec![1.0 / 3.0, 2.5e-9]);
        r.samples("empty", vec![]);
        r.check("weights", false, "diff\t1e-3\nfar");
        let back = Record::parse(&r.emit()).unwrap();
        assert_eq!(back.get("setup_s"), Some(0.1 + 0.2));
        assert_eq!(back.sample("visit_ms"), &[1.0 / 3.0, 2.5e-9]);
        assert!(back.sample("empty").is_empty());
        assert_eq!(
            back.checks,
            vec![("weights".to_string(), false, "diff 1e-3 far".to_string())]
        );
    }
}
