//! Command-line driver for TerraDir simulations.
//!
//! The library half parses a simulation specification from CLI-style
//! arguments and runs it (unit-testable without spawning a process); the
//! `terradir-sim` binary is a thin wrapper.
//!
//! ```text
//! terradir-run --namespace balanced:2:10 --servers 256 --rate 1250 \
//!              --stream zipf:1.0 --duration 120 --system bcr \
//!              [--seed 42] [--spread 2.0] [--static-levels 3]
//!              [--fail 0.1@60] [--tsv drops|replicas|load]
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;

use terradir::{Config, ServerId, System};
use terradir_namespace::{balanced_tree, coda_like, from_paths, CodaParams, Namespace};
use terradir_workload::{seed::tags, seeded_rng, StreamPlan};

/// Which per-second series to dump as TSV after the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TsvSeries {
    /// Dropped queries per second.
    Drops,
    /// Replicas created per second.
    Replicas,
    /// Mean and max utilization per second.
    Load,
}

/// A fully parsed simulation specification.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Namespace description (kept for [`Spec::build_namespace`]).
    pub namespace: NamespaceSpec,
    /// Participating servers.
    pub servers: u32,
    /// Global arrival rate λ (queries/second).
    pub rate: f64,
    /// Simulated duration in seconds.
    pub duration: f64,
    /// Destination stream.
    pub stream: StreamSpec,
    /// Which protocol stack to run (B, BC, or BCR).
    pub system: SystemKind,
    /// Master seed.
    pub seed: u64,
    /// Server speed spread (1 = homogeneous).
    pub spread: f64,
    /// Static replication of the top levels (0 = off).
    pub static_levels: u16,
    /// Optional failure injection: `(fraction, at_time)`.
    pub fail: Option<(f64, f64)>,
    /// Optional TSV series dump.
    pub tsv: Option<TsvSeries>,
    /// Emit the final report as a JSON object instead of TSV lines.
    pub json: bool,
}

/// Namespace selection.
#[derive(Debug, Clone, PartialEq)]
pub enum NamespaceSpec {
    /// `balanced:<arity>:<levels>`
    Balanced(u32, u16),
    /// `coda:<nodes>`
    Coda(usize),
    /// `paths:<file>` — one absolute path per line.
    Paths(String),
}

/// Stream selection.
#[derive(Debug, Clone, PartialEq)]
pub enum StreamSpec {
    /// `unif`
    Unif,
    /// `zipf:<order>`
    Zipf(f64),
    /// `adaptation:<order>:<warmup>:<shifts>`
    Adaptation(f64, f64, usize),
}

/// Protocol stack selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SystemKind {
    /// Base system (no caching, no replication).
    B,
    /// Caching only.
    Bc,
    /// The full protocol.
    Bcr,
}

/// A CLI parsing error with a user-facing message.
#[derive(Debug, PartialEq, Eq)]
pub struct ParseError(pub String);

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ParseError {}

fn err(msg: impl Into<String>) -> ParseError {
    ParseError(msg.into())
}

impl Default for Spec {
    fn default() -> Self {
        Spec {
            namespace: NamespaceSpec::Balanced(2, 9),
            servers: 128,
            rate: 600.0,
            duration: 60.0,
            stream: StreamSpec::Zipf(1.0),
            system: SystemKind::Bcr,
            seed: 42,
            spread: 1.0,
            static_levels: 0,
            fail: None,
            tsv: None,
            json: false,
        }
    }
}

impl Spec {
    /// Parses a spec from an argument list (without the program name).
    pub fn parse<I, S>(args: I) -> Result<Spec, ParseError>
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let mut spec = Spec::default();
        let args: Vec<String> = args.into_iter().map(|a| a.as_ref().to_string()).collect();
        let mut it = args.into_iter();
        while let Some(flag) = it.next() {
            let mut value = |name: &str| {
                it.next()
                    .ok_or_else(|| err(format!("{name} needs a value")))
            };
            match flag.as_str() {
                "--namespace" => {
                    let v = value("--namespace")?;
                    spec.namespace = parse_namespace(&v)?;
                }
                "--servers" => {
                    spec.servers = value("--servers")?
                        .parse()
                        .map_err(|_| err("--servers must be a positive integer"))?;
                }
                "--rate" => {
                    spec.rate = value("--rate")?
                        .parse()
                        .map_err(|_| err("--rate must be a number"))?;
                }
                "--duration" => {
                    spec.duration = value("--duration")?
                        .parse()
                        .map_err(|_| err("--duration must be a number"))?;
                }
                "--stream" => {
                    let v = value("--stream")?;
                    spec.stream = parse_stream(&v)?;
                }
                "--system" => {
                    spec.system = match value("--system")?.to_lowercase().as_str() {
                        "b" => SystemKind::B,
                        "bc" => SystemKind::Bc,
                        "bcr" => SystemKind::Bcr,
                        other => return Err(err(format!("unknown system '{other}' (b|bc|bcr)"))),
                    };
                }
                "--seed" => {
                    spec.seed = value("--seed")?
                        .parse()
                        .map_err(|_| err("--seed must be an integer"))?;
                }
                "--spread" => {
                    spec.spread = value("--spread")?
                        .parse()
                        .map_err(|_| err("--spread must be a number ≥ 1"))?;
                }
                "--static-levels" => {
                    spec.static_levels = value("--static-levels")?
                        .parse()
                        .map_err(|_| err("--static-levels must be an integer"))?;
                }
                "--fail" => {
                    let v = value("--fail")?;
                    let (frac, at) = v
                        .split_once('@')
                        .ok_or_else(|| err("--fail wants <fraction>@<time>"))?;
                    spec.fail = Some((
                        frac.parse()
                            .map_err(|_| err("--fail fraction must be a number"))?,
                        at.parse()
                            .map_err(|_| err("--fail time must be a number"))?,
                    ));
                }
                "--tsv" => {
                    spec.tsv = Some(match value("--tsv")?.as_str() {
                        "drops" => TsvSeries::Drops,
                        "replicas" => TsvSeries::Replicas,
                        "load" => TsvSeries::Load,
                        other => return Err(err(format!("unknown series '{other}'"))),
                    });
                }
                "--json" => spec.json = true,
                "--help" | "-h" => return Err(err(USAGE)),
                other => return Err(err(format!("unknown flag '{other}'\n{USAGE}"))),
            }
        }
        spec.validate()?;
        Ok(spec)
    }

    fn validate(&self) -> Result<(), ParseError> {
        if self.servers == 0 {
            return Err(err("--servers must be positive"));
        }
        if self.rate.is_nan() || self.rate <= 0.0 {
            return Err(err("--rate must be positive"));
        }
        if self.duration.is_nan() || self.duration <= 0.0 {
            return Err(err("--duration must be positive"));
        }
        if self.spread < 1.0 {
            return Err(err("--spread must be ≥ 1"));
        }
        if let Some((f, t)) = self.fail {
            if !(0.0..1.0).contains(&f) {
                return Err(err("--fail fraction must be in [0, 1)"));
            }
            if t < 0.0 || t > self.duration {
                return Err(err("--fail time must lie within the run"));
            }
        }
        Ok(())
    }

    /// Builds the namespace this spec describes.
    pub fn build_namespace(&self) -> Result<Namespace, ParseError> {
        match &self.namespace {
            NamespaceSpec::Balanced(arity, levels) => Ok(balanced_tree(*arity, *levels)),
            NamespaceSpec::Coda(nodes) => {
                let params = CodaParams {
                    nodes: *nodes,
                    ..CodaParams::default()
                };
                let mut rng = seeded_rng(self.seed, tags::NAMESPACE);
                Ok(coda_like(&params, &mut rng))
            }
            NamespaceSpec::Paths(file) => {
                let text = std::fs::read_to_string(file)
                    .map_err(|e| err(format!("cannot read {file}: {e}")))?;
                from_paths(text.lines().filter(|l| !l.trim().is_empty()))
                    .map_err(|e| err(format!("bad path in {file}: {e}")))
            }
        }
    }

    /// Builds the protocol configuration.
    pub fn build_config(&self) -> Config {
        let mut cfg = match self.system {
            SystemKind::B => Config::base_system(self.servers),
            SystemKind::Bc => Config::caching_only(self.servers),
            SystemKind::Bcr => Config::paper_default(self.servers),
        }
        .with_seed(self.seed);
        cfg.speed_spread = self.spread;
        cfg.static_top_levels = self.static_levels;
        cfg
    }

    /// Builds the stream plan.
    pub fn build_plan(&self) -> StreamPlan {
        match self.stream {
            StreamSpec::Unif => StreamPlan::unif(self.duration),
            StreamSpec::Zipf(order) => StreamPlan::uzipf(order, self.duration),
            StreamSpec::Adaptation(order, warmup, shifts) => {
                let seg = ((self.duration - warmup) / shifts.max(1) as f64).max(1.0);
                StreamPlan::adaptation(order, warmup, shifts, seg)
            }
        }
    }

    /// Runs the simulation, writing progress to `progress` and the final
    /// report (plus optional TSV) to `out`.
    pub fn run(
        &self,
        out: &mut dyn std::io::Write,
        progress: &mut dyn std::io::Write,
    ) -> Result<(), Box<dyn std::error::Error>> {
        let ns = self.build_namespace()?;
        writeln!(
            progress,
            "namespace: {} nodes (depth {}), {} servers, λ={}/s, {}s, system {:?}",
            ns.len(),
            ns.max_depth(),
            self.servers,
            self.rate,
            self.duration,
            self.system
        )?;
        let mut sys = System::new(ns, self.build_config(), self.build_plan(), self.rate);
        let mut failed = false;
        let report_every = (self.duration / 10.0).max(1.0);
        let mut t = 0.0;
        while t < self.duration {
            let next = (t + report_every).min(self.duration);
            if let Some((frac, at)) = self.fail {
                if !failed && at <= next {
                    sys.run_until(at);
                    let step = (1.0 / frac).max(1.0) as usize;
                    for i in (0..self.servers).step_by(step) {
                        sys.fail_server(ServerId(i));
                    }
                    writeln!(
                        progress,
                        "t={at:.0}s: failed {} servers",
                        sys.failed_count()
                    )?;
                    failed = true;
                }
            }
            sys.run_until(next);
            t = next;
            let st = sys.stats();
            writeln!(
                progress,
                "t={t:.0}s: injected {} resolved {} dropped {} replicas {}",
                st.injected,
                st.resolved,
                st.dropped_total(),
                sys.total_replicas()
            )?;
        }
        let st = sys.stats();
        if self.json {
            writeln!(out, "{}", st.summary().to_json())?;
            return Ok(());
        }
        writeln!(out, "injected\t{}", st.injected)?;
        writeln!(
            out,
            "resolved\t{}\t{:.4}",
            st.resolved,
            st.resolve_fraction()
        )?;
        writeln!(
            out,
            "dropped\t{}\t{:.4}",
            st.dropped_total(),
            st.drop_fraction()
        )?;
        writeln!(
            out,
            "latency_mean_ms\t{:.2}",
            st.latency.mean().unwrap_or(0.0) * 1e3
        )?;
        writeln!(
            out,
            "latency_p99_ms\t{:.2}",
            st.latency.quantile(0.99).unwrap_or(0.0) * 1e3
        )?;
        writeln!(out, "hops_mean\t{:.3}", st.hops.mean().unwrap_or(0.0))?;
        writeln!(out, "replicas_created\t{}", st.replicas_created)?;
        writeln!(out, "replicas_live\t{}", sys.total_replicas())?;
        writeln!(out, "sessions_started\t{}", st.sessions_started)?;
        writeln!(out, "sessions_completed\t{}", st.sessions_completed)?;
        writeln!(out, "control_messages\t{}", st.control_messages)?;
        match self.tsv {
            Some(TsvSeries::Drops) => {
                writeln!(out, "\ntime\tdrops")?;
                for (i, &v) in st.drops_per_sec.bins().iter().enumerate() {
                    writeln!(out, "{i}\t{v}")?;
                }
            }
            Some(TsvSeries::Replicas) => {
                writeln!(out, "\ntime\treplicas_created")?;
                for (i, &v) in st.replicas_per_sec.bins().iter().enumerate() {
                    writeln!(out, "{i}\t{v}")?;
                }
            }
            Some(TsvSeries::Load) => {
                writeln!(out, "\ntime\tmean\tmax")?;
                for (i, (m, x)) in st
                    .load_mean_per_sec
                    .iter()
                    .zip(&st.load_max_per_sec)
                    .enumerate()
                {
                    writeln!(out, "{i}\t{m:.4}\t{x:.4}")?;
                }
            }
            None => {}
        }
        Ok(())
    }
}

fn parse_namespace(v: &str) -> Result<NamespaceSpec, ParseError> {
    let parts: Vec<&str> = v.split(':').collect();
    match parts.as_slice() {
        ["balanced", arity, levels] => Ok(NamespaceSpec::Balanced(
            arity
                .parse()
                .map_err(|_| err("balanced arity must be an integer"))?,
            levels
                .parse()
                .map_err(|_| err("balanced levels must be an integer"))?,
        )),
        ["coda", nodes] => Ok(NamespaceSpec::Coda(
            nodes
                .parse()
                .map_err(|_| err("coda nodes must be an integer"))?,
        )),
        ["paths", file] => Ok(NamespaceSpec::Paths(file.to_string())),
        _ => Err(err(format!(
            "unknown namespace '{v}' (balanced:<arity>:<levels> | coda:<nodes> | paths:<file>)"
        ))),
    }
}

fn parse_stream(v: &str) -> Result<StreamSpec, ParseError> {
    let parts: Vec<&str> = v.split(':').collect();
    match parts.as_slice() {
        ["unif"] => Ok(StreamSpec::Unif),
        ["zipf", order] => Ok(StreamSpec::Zipf(
            order
                .parse()
                .map_err(|_| err("zipf order must be a number"))?,
        )),
        ["adaptation", order, warmup, shifts] => Ok(StreamSpec::Adaptation(
            order
                .parse()
                .map_err(|_| err("adaptation order must be a number"))?,
            warmup
                .parse()
                .map_err(|_| err("adaptation warmup must be a number"))?,
            shifts
                .parse()
                .map_err(|_| err("adaptation shifts must be an integer"))?,
        )),
        _ => Err(err(format!(
            "unknown stream '{v}' (unif | zipf:<order> | adaptation:<order>:<warmup>:<shifts>)"
        ))),
    }
}

/// Usage text shown for `--help` and bad flags.
pub const USAGE: &str = "usage: terradir-run [flags]
  --namespace balanced:<arity>:<levels> | coda:<nodes> | paths:<file>   (default balanced:2:9)
  --servers N           participating servers                (default 128)
  --rate R              global arrival rate, queries/second  (default 600)
  --duration S          simulated seconds                    (default 60)
  --stream unif | zipf:<order> | adaptation:<order>:<warmup>:<shifts>   (default zipf:1.0)
  --system b | bc | bcr protocol stack                       (default bcr)
  --seed X              master seed                          (default 42)
  --spread F            server speed heterogeneity, ≥ 1      (default 1)
  --static-levels L     static top-level replication         (default 0)
  --fail F@T            fail fraction F of servers at time T
  --tsv drops|replicas|load  dump a per-second series
  --json                emit the final report as JSON";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_spec_is_valid() {
        let spec = Spec::parse(Vec::<String>::new()).unwrap();
        assert_eq!(spec.servers, 128);
        assert_eq!(spec.system, SystemKind::Bcr);
    }

    #[test]
    fn parses_a_full_flag_set() {
        let spec = Spec::parse([
            "--namespace",
            "balanced:3:5",
            "--servers",
            "64",
            "--rate",
            "300",
            "--duration",
            "30",
            "--stream",
            "adaptation:1.25:10:2",
            "--system",
            "bc",
            "--seed",
            "7",
            "--spread",
            "2.5",
            "--static-levels",
            "2",
            "--fail",
            "0.1@15",
            "--tsv",
            "load",
        ])
        .unwrap();
        assert_eq!(spec.namespace, NamespaceSpec::Balanced(3, 5));
        assert_eq!(spec.servers, 64);
        assert_eq!(spec.stream, StreamSpec::Adaptation(1.25, 10.0, 2));
        assert_eq!(spec.system, SystemKind::Bc);
        assert_eq!(spec.fail, Some((0.1, 15.0)));
        assert_eq!(spec.tsv, Some(TsvSeries::Load));
    }

    #[test]
    fn rejects_bad_flags_and_values() {
        assert!(Spec::parse(["--bogus"]).is_err());
        assert!(Spec::parse(["--servers"]).is_err());
        assert!(Spec::parse(["--servers", "zero"]).is_err());
        assert!(Spec::parse(["--stream", "pareto:1"]).is_err());
        assert!(Spec::parse(["--fail", "2@5"]).is_err());
        assert!(Spec::parse(["--fail", "0.5@999"]).is_err());
        assert!(Spec::parse(["--spread", "0.5"]).is_err());
    }

    #[test]
    fn builds_namespaces() {
        let spec = Spec::parse(["--namespace", "balanced:2:4"]).unwrap();
        assert_eq!(spec.build_namespace().unwrap().len(), 31);
        let spec = Spec::parse(["--namespace", "coda:500"]).unwrap();
        assert_eq!(spec.build_namespace().unwrap().len(), 500);
    }

    #[test]
    fn json_output_mode() {
        let spec = Spec::parse([
            "--namespace",
            "balanced:2:4",
            "--servers",
            "4",
            "--rate",
            "20",
            "--duration",
            "3",
            "--json",
        ])
        .unwrap();
        let mut out = Vec::new();
        let mut progress = Vec::new();
        spec.run(&mut out, &mut progress).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.trim().starts_with('{'), "{text}");
        assert!(text.contains("\"resolved\""));
    }

    #[test]
    fn end_to_end_small_run() {
        let spec = Spec::parse([
            "--namespace",
            "balanced:2:5",
            "--servers",
            "8",
            "--rate",
            "40",
            "--duration",
            "5",
            "--tsv",
            "drops",
        ])
        .unwrap();
        let mut out = Vec::new();
        let mut progress = Vec::new();
        spec.run(&mut out, &mut progress).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("resolved"));
        assert!(text.contains("latency_mean_ms"));
        assert!(text.contains("time\tdrops"));
    }

    #[test]
    fn end_to_end_with_failure_injection() {
        let spec = Spec::parse([
            "--namespace",
            "balanced:2:5",
            "--servers",
            "8",
            "--rate",
            "40",
            "--duration",
            "6",
            "--fail",
            "0.25@3",
        ])
        .unwrap();
        let mut out = Vec::new();
        let mut progress = Vec::new();
        spec.run(&mut out, &mut progress).unwrap();
        let plog = String::from_utf8(progress).unwrap();
        assert!(plog.contains("failed 2 servers"), "{plog}");
    }
}
