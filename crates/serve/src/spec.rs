//! Scenario specifications: what a client asks the service to simulate,
//! and the canonical byte encoding that names the result in the cache.
//!
//! # Cache identity
//!
//! [`ScenarioSpec::canonical_bytes`] is the single source of result
//! identity. It reuses [`SystemConfig::canonical_encode`] — the same
//! encoding the snapshot header hash is built from — so the service cache
//! and the checkpoint format can never disagree about what configuration a
//! run used. On top of the derived system configuration the spec encodes
//! the workload program and its parameters, plus the trace flag (traced
//! payloads carry a scoreboard section, so they are distinct cache
//! entries).
//!
//! Deliberately **excluded** from the key:
//!
//! - `max_sim_us` — a deadline. A completed deterministic run produces the
//!   same payload under any deadline it fits inside, and failed runs are
//!   never cached.
//! - the tenant — results are content-addressed, not owner-addressed;
//!   quotas meter *work*, and cache hits cost no work.
//! - `sim_threads` / `mesh_shards` — inert config fields (the simulator is
//!   serial), already excluded by `SystemConfig::canonical_encode`.

use std::fmt;

use duet_sim::{SnapHasher, SnapWriter};
use duet_system::SystemConfig;
use duet_verify::FaultPlan;
use duet_workloads::BenchVariant;

use crate::json::Json;

/// Hard ceiling on problem sizes accepted over the wire, so a single
/// request cannot monopolize a worker for hours.
pub const MAX_N: u64 = 64;
/// Default simulated-time deadline when a spec omits `max_sim_us`.
pub const DEFAULT_MAX_SIM_US: u64 = 200_000;

/// Which program to run.
#[derive(Clone, Debug, PartialEq)]
pub enum WorkloadSpec {
    /// Popcount over `n` 512-bit vectors (fine-grained offload).
    Popcount {
        /// Vector count (1..=[`MAX_N`]).
        n: u64,
        /// Data seed.
        seed: u64,
    },
    /// Fixed-point tangent over `n` angles (arithmetic offload).
    Tangent {
        /// Angle count (1..=[`MAX_N`]).
        n: u64,
        /// Data seed.
        seed: u64,
    },
    /// All cores hammer stores at one shared window (coherence stress;
    /// proc-only).
    StreamStores {
        /// Core count (1..=8).
        processors: u64,
        /// Stores per core (1..=4096).
        stores: u64,
    },
}

impl WorkloadSpec {
    /// Stable wire / cache code for the workload program.
    fn code(&self) -> u64 {
        match self {
            WorkloadSpec::Popcount { .. } => 0,
            WorkloadSpec::Tangent { .. } => 1,
            WorkloadSpec::StreamStores { .. } => 2,
        }
    }

    /// Wire name.
    pub fn name(&self) -> &'static str {
        match self {
            WorkloadSpec::Popcount { .. } => "popcount",
            WorkloadSpec::Tangent { .. } => "tangent",
            WorkloadSpec::StreamStores { .. } => "stream_stores",
        }
    }
}

/// A complete simulation request.
#[derive(Clone, Debug, PartialEq)]
pub struct ScenarioSpec {
    /// The program.
    pub workload: WorkloadSpec,
    /// System variant (`proc-only` / `duet` / `fpsoc`).
    pub variant: BenchVariant,
    /// Deterministic fault schedule (parsed from the plan's text format).
    pub faults: FaultPlan,
    /// Capture a trace and include the scoreboard report in the payload.
    pub trace: bool,
    /// Simulated-time deadline in microseconds.
    pub max_sim_us: u64,
}

/// A spec validation / decode failure, returned to clients as HTTP 400.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpecError(pub String);

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for SpecError {}

fn field_u64(v: &Json, key: &str, default: u64) -> Result<u64, SpecError> {
    match v.get(key) {
        None => Ok(default),
        Some(j) => j
            .as_u64()
            .ok_or_else(|| SpecError(format!("'{key}' must be a non-negative integer"))),
    }
}

fn bounded(name: &str, v: u64, lo: u64, hi: u64) -> Result<u64, SpecError> {
    if (lo..=hi).contains(&v) {
        Ok(v)
    } else {
        Err(SpecError(format!(
            "'{name}' must be in {lo}..={hi}, got {v}"
        )))
    }
}

impl ScenarioSpec {
    /// Decodes and validates a spec from the request body.
    ///
    /// Expected shape (all fields except `workload` optional):
    ///
    /// ```json
    /// {
    ///   "workload": "popcount",
    ///   "n": 8, "seed": 42,
    ///   "variant": "duet",
    ///   "faults": "seed = 1\nfault accel_hang from_us=50 until_us=60\n",
    ///   "trace": false,
    ///   "max_sim_us": 200000
    /// }
    /// ```
    pub fn from_json(v: &Json) -> Result<ScenarioSpec, SpecError> {
        let name = v
            .get("workload")
            .and_then(Json::as_str)
            .ok_or_else(|| SpecError("missing 'workload' (string)".into()))?;
        let workload = match name {
            "popcount" => WorkloadSpec::Popcount {
                n: bounded("n", field_u64(v, "n", 8)?, 1, MAX_N)?,
                seed: field_u64(v, "seed", 1)?,
            },
            "tangent" => WorkloadSpec::Tangent {
                n: bounded("n", field_u64(v, "n", 8)?, 1, MAX_N)?,
                seed: field_u64(v, "seed", 1)?,
            },
            "stream_stores" => WorkloadSpec::StreamStores {
                processors: bounded("processors", field_u64(v, "processors", 2)?, 1, 8)?,
                stores: bounded("stores", field_u64(v, "stores", 256)?, 1, 4096)?,
            },
            other => {
                return Err(SpecError(format!(
                    "unknown workload '{other}' (expected popcount, tangent, or stream_stores)"
                )))
            }
        };
        let variant = match v.get("variant").and_then(Json::as_str).unwrap_or("duet") {
            "proc-only" | "proc_only" => BenchVariant::ProcOnly,
            "duet" => BenchVariant::Duet,
            "fpsoc" => BenchVariant::Fpsoc,
            other => {
                return Err(SpecError(format!(
                    "unknown variant '{other}' (expected proc-only, duet, or fpsoc)"
                )))
            }
        };
        if matches!(workload, WorkloadSpec::StreamStores { .. })
            && variant != BenchVariant::ProcOnly
        {
            return Err(SpecError(
                "stream_stores runs on variant 'proc-only' only".into(),
            ));
        }
        let faults = match v.get("faults") {
            None => FaultPlan::empty(),
            Some(Json::Str(text)) => {
                FaultPlan::parse(text).map_err(|e| SpecError(format!("invalid fault plan: {e}")))?
            }
            Some(_) => {
                return Err(SpecError(
                    "'faults' must be a string in the fault-plan text format".into(),
                ))
            }
        };
        let trace = match v.get("trace") {
            None => false,
            Some(j) => j
                .as_bool()
                .ok_or_else(|| SpecError("'trace' must be a boolean".into()))?,
        };
        let max_sim_us = bounded(
            "max_sim_us",
            field_u64(v, "max_sim_us", DEFAULT_MAX_SIM_US)?,
            1,
            10_000_000,
        )?;
        Ok(ScenarioSpec {
            workload,
            variant,
            faults,
            trace,
            max_sim_us,
        })
    }

    /// Echoes the spec back as JSON. The fault plan is rendered through its
    /// lossless text formatter, so `from_json(to_json(spec)) == spec`.
    pub fn to_json(&self) -> Json {
        let mut fields: Vec<(String, Json)> = vec![(
            "workload".to_string(),
            Json::Str(self.workload.name().to_string()),
        )];
        match &self.workload {
            WorkloadSpec::Popcount { n, seed } | WorkloadSpec::Tangent { n, seed } => {
                fields.push(("n".to_string(), Json::U64(*n)));
                fields.push(("seed".to_string(), Json::U64(*seed)));
            }
            WorkloadSpec::StreamStores { processors, stores } => {
                fields.push(("processors".to_string(), Json::U64(*processors)));
                fields.push(("stores".to_string(), Json::U64(*stores)));
            }
        }
        fields.push((
            "variant".to_string(),
            Json::Str(self.variant.label().to_string()),
        ));
        if !self.faults.is_empty() || self.faults.seed != 0 {
            fields.push(("faults".to_string(), Json::Str(self.faults.render())));
        }
        fields.push(("trace".to_string(), Json::Bool(self.trace)));
        fields.push(("max_sim_us".to_string(), Json::U64(self.max_sim_us)));
        Json::Obj(fields)
    }

    /// The `SystemConfig` this spec runs under, fault plan folded in.
    /// `crate::scenario::build` constructs the system from exactly this
    /// config, so the cache key and the executed machine agree.
    pub fn system_config(&self) -> SystemConfig {
        let mut cfg = match &self.workload {
            WorkloadSpec::Popcount { .. } => {
                self.variant
                    .system_config(1, 1, duet_workloads::POPCOUNT_MHZ)
            }
            WorkloadSpec::Tangent { .. } => {
                self.variant
                    .system_config(1, 0, duet_workloads::TANGENT_MHZ)
            }
            WorkloadSpec::StreamStores { processors, .. } => {
                SystemConfig::proc_only(*processors as usize)
            }
        };
        cfg.faults = self.faults.clone();
        cfg
    }

    /// Canonical byte encoding of result identity (see the module docs for
    /// what is included and what is deliberately left out).
    pub fn canonical_bytes(&self) -> Vec<u8> {
        let mut w = SnapWriter::new();
        w.u8(1); // spec encoding version
        w.u64(self.workload.code());
        match &self.workload {
            WorkloadSpec::Popcount { n, seed } | WorkloadSpec::Tangent { n, seed } => {
                w.u64(*n);
                w.u64(*seed);
            }
            WorkloadSpec::StreamStores { processors, stores } => {
                w.u64(*processors);
                w.u64(*stores);
            }
        }
        self.system_config().canonical_encode(&mut w);
        w.u8(u8::from(self.trace));
        w.finish()
    }

    /// Content-addressed cache key: hash of [`canonical_bytes`].
    ///
    /// [`canonical_bytes`]: ScenarioSpec::canonical_bytes
    pub fn cache_key(&self) -> u64 {
        let mut h = SnapHasher::new();
        h.bytes(&self.canonical_bytes());
        h.finish()
    }

    /// The cache key formatted the way the HTTP API spells it.
    pub fn cache_key_hex(&self) -> String {
        format!("{:016x}", self.cache_key())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn spec(body: &str) -> ScenarioSpec {
        ScenarioSpec::from_json(&json::parse(body.as_bytes()).unwrap()).unwrap()
    }

    #[test]
    fn decode_applies_defaults_and_validates() {
        let s = spec(r#"{"workload":"popcount"}"#);
        assert_eq!(s.workload, WorkloadSpec::Popcount { n: 8, seed: 1 });
        assert_eq!(s.variant, BenchVariant::Duet);
        assert!(!s.trace);
        assert_eq!(s.max_sim_us, DEFAULT_MAX_SIM_US);

        for bad in [
            r#"{}"#,
            r#"{"workload":"sort"}"#,
            r#"{"workload":"popcount","n":0}"#,
            r#"{"workload":"popcount","n":65}"#,
            r#"{"workload":"stream_stores","variant":"duet"}"#,
            r#"{"workload":"popcount","faults":"fault bogus from_us=1"}"#,
            r#"{"workload":"popcount","trace":1}"#,
        ] {
            let v = json::parse(bad.as_bytes()).unwrap();
            assert!(ScenarioSpec::from_json(&v).is_err(), "{bad} should fail");
        }
    }

    #[test]
    fn json_echo_round_trips_including_fault_plan() {
        let s = spec(
            r#"{"workload":"tangent","n":5,"seed":9,"variant":"fpsoc",
                "faults":"seed = 3\nfault noc_delay node=2 from_us=10 until_us=20\n",
                "trace":true,"max_sim_us":1000}"#,
        );
        let echoed = ScenarioSpec::from_json(&s.to_json()).unwrap();
        assert_eq!(echoed, s);
    }

    #[test]
    fn cache_key_separates_everything_that_matters() {
        let base = spec(r#"{"workload":"popcount","n":8,"seed":1}"#);
        let keys: Vec<u64> = [
            r#"{"workload":"popcount","n":8,"seed":1}"#,
            r#"{"workload":"popcount","n":9,"seed":1}"#,
            r#"{"workload":"popcount","n":8,"seed":2}"#,
            r#"{"workload":"tangent","n":8,"seed":1}"#,
            r#"{"workload":"popcount","n":8,"seed":1,"variant":"fpsoc"}"#,
            r#"{"workload":"popcount","n":8,"seed":1,"trace":true}"#,
            r#"{"workload":"popcount","n":8,"seed":1,
                "faults":"fault accel_hang from_us=1 until_us=2\n"}"#,
        ]
        .iter()
        .map(|b| spec(b).cache_key())
        .collect();
        for (i, a) in keys.iter().enumerate() {
            for (j, b) in keys.iter().enumerate() {
                if i != j {
                    assert_ne!(a, b, "specs {i} and {j} collided");
                }
            }
        }
        assert_eq!(keys[0], base.cache_key(), "key must be stable");
    }

    #[test]
    fn cache_key_ignores_deadline() {
        let a = spec(r#"{"workload":"popcount","max_sim_us":1000}"#);
        let b = spec(r#"{"workload":"popcount","max_sim_us":2000}"#);
        assert_eq!(a.cache_key(), b.cache_key());
    }
}
