//! Wire protocol: the typed request layer over the workspace's JSON
//! reader ([`argo_trace::json`]).
//!
//! Every request arrives as one JSON object on one line; every reply
//! frame leaves as one JSON object on one line (see the crate docs for
//! the frame reference). Requests are parsed into typed specs
//! ([`PointSpec`], the explorer's own [`DesignSpace`], [`SearchSpec`])
//! using the same label vocabulary as the `argo-dse` CLI (`list|bnb|anneal`,
//! `loop|block|stmt`, `bus|noc`, `naive|static|windows`), and every
//! work request has a canonical [`Fingerprint`] over its *parsed*
//! fields — two requests that mean the same thing coalesce in the
//! single-flight layer no matter how their JSON was formatted.

use argo_core::{Diagnostic, Fingerprint, FingerprintHasher, SchedulerKind};
use argo_dse::{DesignSpace, ExplorationPoint, PlatformKind, PointMetrics};
use argo_htg::Granularity;
use argo_trace::json::{escape, Value};
use argo_wcet::system::MhpMode;

/// One fully-specified point request (`compile` / `verify`).
#[derive(Debug, Clone, PartialEq)]
pub struct PointSpec {
    /// Use-case name resolved by the server's explorer.
    pub app: String,
    /// Platform family.
    pub platform: PlatformKind,
    /// Core count.
    pub cores: usize,
    /// Mapping/scheduling strategy.
    pub scheduler: SchedulerKind,
    /// Task extraction granularity.
    pub granularity: Granularity,
    /// DOALL chunking on/off.
    pub chunk: bool,
    /// Per-core SPM override in bytes (`None` = platform default).
    pub spm: Option<u64>,
    /// MHP precision of the system-level analysis.
    pub mhp: MhpMode,
    /// Synthetic-input seed.
    pub seed: u64,
    /// Backend feedback rounds.
    pub rounds: u32,
}

impl PointSpec {
    /// The exploration point this spec describes.
    pub fn point(&self) -> ExplorationPoint {
        ExplorationPoint {
            app: self.app.clone(),
            platform: self.platform,
            cores: self.cores,
            scheduler: self.scheduler,
            granularity: self.granularity,
            chunk_loops: self.chunk,
            spm_bytes: self.spm,
            mhp: self.mhp,
        }
    }

    /// The one-point design space carrying the cross-point knobs.
    pub fn space(&self) -> DesignSpace {
        let mut space = DesignSpace::new().app(&self.app);
        space.mhp = self.mhp;
        space.feedback_rounds = self.rounds;
        space.seed = self.seed;
        space
    }

    fn feed(&self, h: &mut FingerprintHasher) {
        h.write_str(&self.app)
            .write_str(self.platform.label())
            .write_u64(self.cores as u64)
            .write_str(self.scheduler.label())
            .write_str(self.granularity.label())
            .write_bool(self.chunk);
        h.write_bool(self.spm.is_some());
        h.write_u64(self.spm.unwrap_or(0));
        h.write_str(self.mhp.label())
            .write_u64(self.seed)
            .write_u64(self.rounds as u64);
    }
}

/// Feeds a sweep's design space into a request fingerprint: every
/// axis, length-prefixed, then the cross-point knobs.
fn feed_space(space: &DesignSpace, h: &mut FingerprintHasher) {
    h.write_u64(space.apps.len() as u64);
    for app in &space.apps {
        h.write_str(app);
    }
    h.write_u64(space.platforms.len() as u64);
    for p in &space.platforms {
        h.write_str(p.label());
    }
    h.write_u64(space.cores.len() as u64);
    for &c in &space.cores {
        h.write_u64(c as u64);
    }
    h.write_u64(space.schedulers.len() as u64);
    for &s in &space.schedulers {
        h.write_str(s.label());
    }
    h.write_u64(space.granularities.len() as u64);
    for &g in &space.granularities {
        h.write_str(g.label());
    }
    h.write_u64(space.chunking.len() as u64);
    for &c in &space.chunking {
        h.write_bool(c);
    }
    h.write_u64(space.spm_capacities.len() as u64);
    for &spm in &space.spm_capacities {
        h.write_bool(spm.is_some());
        h.write_u64(spm.unwrap_or(0));
    }
    h.write_str(space.mhp.label())
        .write_u64(space.seed)
        .write_u64(space.feedback_rounds as u64);
}

/// A steered-search request (`search`): a sweep plus strategy/budget.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchSpec {
    /// The lattice to steer over.
    pub sweep: DesignSpace,
    /// Strategy label (`ga`, `anneal`, `halving`) — validated at parse
    /// time against `argo_search::parse_strategy`.
    pub strategy: String,
    /// Requested evaluation budget (`None` = the server's cap).
    pub budget: Option<usize>,
    /// Optional stall limit.
    pub stall: Option<usize>,
}

/// A typed request, parsed off the wire.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Compile one point, reply with its metrics.
    Compile(PointSpec),
    /// Compile one point, reply with its verification verdict.
    Verify(PointSpec),
    /// Evaluate a whole design space.
    Explore(DesignSpace),
    /// Steered search over a design space.
    Search(SearchSpec),
    /// Server/session/cache/store counters.
    Stats,
    /// Prometheus text exposition of the daemon's metrics registries.
    Metrics,
    /// Clean server shutdown.
    Shutdown,
}

impl Request {
    /// Canonical fingerprint of a *work* request (the single-flight
    /// key): a hash over the parsed, typed fields — formatting, field
    /// order and ignored fields (`id`, `progress`) do not matter.
    /// `stats` and `shutdown` are not work requests and have no key.
    pub fn fingerprint(&self) -> Option<Fingerprint> {
        let mut h = FingerprintHasher::new();
        match self {
            Request::Compile(p) => {
                h.write_str("serve-compile");
                p.feed(&mut h);
            }
            Request::Verify(p) => {
                h.write_str("serve-verify");
                p.feed(&mut h);
            }
            Request::Explore(space) => {
                h.write_str("serve-explore");
                feed_space(space, &mut h);
            }
            Request::Search(s) => {
                h.write_str("serve-search");
                feed_space(&s.sweep, &mut h);
                h.write_str(&s.strategy);
                h.write_bool(s.budget.is_some());
                h.write_u64(s.budget.unwrap_or(0) as u64);
                h.write_bool(s.stall.is_some());
                h.write_u64(s.stall.unwrap_or(0) as u64);
            }
            Request::Stats | Request::Metrics | Request::Shutdown => return None,
        }
        Some(h.finish())
    }

    /// The wire label of this request's kind.
    pub fn kind(&self) -> &'static str {
        match self {
            Request::Compile(_) => "compile",
            Request::Verify(_) => "verify",
            Request::Explore(_) => "explore",
            Request::Search(_) => "search",
            Request::Stats => "stats",
            Request::Metrics => "metrics",
            Request::Shutdown => "shutdown",
        }
    }
}

/// The request envelope: client-chosen `id` (echoed on every frame for
/// this request), the progress flag, and the typed request.
#[derive(Debug, Clone, PartialEq)]
pub struct Envelope {
    /// Client correlation id (defaults to 0).
    pub id: u64,
    /// Whether the client wants progress frames.
    pub progress: bool,
    /// The request itself.
    pub request: Request,
}

fn field_u64(obj: &Value, key: &str, default: u64) -> Result<u64, String> {
    match obj.get(key) {
        None | Some(Value::Null) => Ok(default),
        Some(v) => v
            .as_u64()
            .ok_or_else(|| format!("`{key}` must be a non-negative integer")),
    }
}

fn field_bool(obj: &Value, key: &str, default: bool) -> Result<bool, String> {
    match obj.get(key) {
        None | Some(Value::Null) => Ok(default),
        Some(v) => v
            .as_bool()
            .ok_or_else(|| format!("`{key}` must be a boolean")),
    }
}

fn field_str<'v>(obj: &'v Value, key: &str, default: &'static str) -> Result<&'v str, String>
where
    'static: 'v,
{
    match obj.get(key) {
        None | Some(Value::Null) => Ok(default),
        Some(v) => v
            .as_str()
            .ok_or_else(|| format!("`{key}` must be a string")),
    }
}

fn field_spm(obj: &Value, key: &str) -> Result<Option<u64>, String> {
    match obj.get(key) {
        None | Some(Value::Null) => Ok(None),
        Some(v) => v
            .as_u64()
            .map(Some)
            .ok_or_else(|| format!("`{key}` must be null or a non-negative integer")),
    }
}

fn point_spec(obj: &Value) -> Result<PointSpec, String> {
    Ok(PointSpec {
        app: field_str(obj, "app", "egpws")?.to_string(),
        platform: PlatformKind::parse(field_str(obj, "platform", "bus")?)?,
        cores: field_u64(obj, "cores", 4)? as usize,
        scheduler: SchedulerKind::parse(field_str(obj, "scheduler", "list")?)?,
        granularity: Granularity::parse(field_str(obj, "granularity", "loop")?)?,
        chunk: field_bool(obj, "chunk", true)?,
        spm: field_spm(obj, "spm")?,
        mhp: MhpMode::parse(field_str(obj, "mhp", "static")?)?,
        seed: field_u64(obj, "seed", 42)?,
        rounds: field_u64(obj, "rounds", 3)? as u32,
    })
}

fn list_of<T>(
    obj: &Value,
    key: &str,
    default: Vec<T>,
    mut one: impl FnMut(&Value) -> Result<T, String>,
) -> Result<Vec<T>, String> {
    match obj.get(key) {
        None | Some(Value::Null) => Ok(default),
        Some(Value::Arr(items)) if !items.is_empty() => items.iter().map(&mut one).collect(),
        Some(Value::Arr(_)) => Err(format!("`{key}` must not be empty")),
        Some(_) => Err(format!("`{key}` must be an array")),
    }
}

fn sweep_spec(obj: &Value) -> Result<DesignSpace, String> {
    let str_item = |what: &'static str| {
        move |v: &Value| {
            v.as_str()
                .map(str::to_string)
                .ok_or_else(|| format!("`{what}` entries must be strings"))
        }
    };
    Ok(DesignSpace {
        apps: list_of(obj, "apps", vec!["egpws".into()], str_item("apps"))?,
        platforms: list_of(obj, "platforms", vec![PlatformKind::Bus], |v| {
            PlatformKind::parse(v.as_str().ok_or("`platforms` entries must be strings")?)
        })?,
        cores: list_of(obj, "cores", vec![4], |v| {
            v.as_u64()
                .map(|c| c as usize)
                .ok_or_else(|| "`cores` entries must be integers".to_string())
        })?,
        schedulers: list_of(obj, "schedulers", vec![SchedulerKind::List], |v| {
            SchedulerKind::parse(v.as_str().ok_or("`schedulers` entries must be strings")?)
        })?,
        granularities: list_of(obj, "granularities", vec![Granularity::Loop], |v| {
            Granularity::parse(
                v.as_str()
                    .ok_or("`granularities` entries must be strings")?,
            )
        })?,
        chunking: list_of(obj, "chunking", vec![true], |v| {
            v.as_bool()
                .ok_or_else(|| "`chunking` entries must be booleans".to_string())
        })?,
        spm_capacities: list_of(obj, "spms", vec![None], |v| match v {
            Value::Null => Ok(None),
            v => v
                .as_u64()
                .map(Some)
                .ok_or_else(|| "`spms` entries must be null or integers".to_string()),
        })?,
        mhp: MhpMode::parse(field_str(obj, "mhp", "static")?)?,
        seed: field_u64(obj, "seed", 42)?,
        feedback_rounds: field_u64(obj, "rounds", 3)? as u32,
    })
}

/// Parses one request line into its envelope.
///
/// # Errors
///
/// A human-readable message for malformed JSON, an unknown `kind`, or
/// a field that fails its typed parse (unknown scheduler label, …).
pub fn parse_request(line: &str) -> Result<Envelope, String> {
    let obj = Value::parse(line)?;
    if !matches!(obj, Value::Obj(_)) {
        return Err("request must be a JSON object".into());
    }
    let id = field_u64(&obj, "id", 0)?;
    let progress = field_bool(&obj, "progress", false)?;
    let kind = obj
        .get("kind")
        .and_then(Value::as_str)
        .ok_or("missing `kind`")?;
    let request = match kind {
        "compile" => Request::Compile(point_spec(&obj)?),
        "verify" => Request::Verify(point_spec(&obj)?),
        "explore" => Request::Explore(sweep_spec(&obj)?),
        "search" => {
            let strategy = field_str(&obj, "strategy", "ga")?.to_string();
            // Validate the label now so the error reaches the client
            // before the job is queued.
            argo_search::parse_strategy(&strategy)?;
            let budget = match obj.get("budget") {
                None | Some(Value::Null) => None,
                Some(v) => Some(
                    v.as_u64()
                        .ok_or("`budget` must be a non-negative integer")?
                        as usize,
                ),
            };
            let stall = match obj.get("stall") {
                None | Some(Value::Null) => None,
                Some(v) => {
                    Some(v.as_u64().ok_or("`stall` must be a non-negative integer")? as usize)
                }
            };
            Request::Search(SearchSpec {
                sweep: sweep_spec(&obj)?,
                strategy,
                budget,
                stall,
            })
        }
        "stats" => Request::Stats,
        "metrics" => Request::Metrics,
        "shutdown" => Request::Shutdown,
        other => return Err(format!("unknown kind `{other}`")),
    };
    Ok(Envelope {
        id,
        progress,
        request,
    })
}

/// Serializes a [`Diagnostic`] for the wire:
/// `{"stage": "...", "code": "...", "entity": ...|null, "message": "..."}`.
pub fn diag_json(d: &Diagnostic) -> String {
    let entity = match &d.entity {
        Some(e) => format!("\"{}\"", escape(e)),
        None => "null".into(),
    };
    format!(
        "{{\"stage\":\"{}\",\"code\":\"{}\",\"entity\":{},\"message\":\"{}\"}}",
        d.stage.label(),
        d.code.label(),
        entity,
        escape(&d.message)
    )
}

/// Serializes [`PointMetrics`] for the wire (all integer fields exact;
/// the speedup rounded to 4 decimals, deterministically).
pub fn metrics_json(m: &PointMetrics) -> String {
    format!(
        "{{\"tasks\":{},\"signals\":{},\"seq_bound\":{},\"par_bound\":{},\
         \"speedup\":{:.4},\"feedback_iterations\":{},\"verify_findings\":{}}}",
        m.tasks,
        m.signals,
        m.seq_bound,
        m.par_bound,
        m.speedup,
        m.feedback_iterations,
        m.verify_findings
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compile_requests_parse_with_defaults() {
        let env = parse_request(r#"{"id": 7, "kind": "compile", "app": "weaa"}"#).unwrap();
        assert_eq!(env.id, 7);
        assert!(!env.progress);
        let Request::Compile(p) = &env.request else {
            panic!("not a compile request: {env:?}");
        };
        assert_eq!(p.app, "weaa");
        assert_eq!(p.cores, 4);
        assert_eq!(p.scheduler, SchedulerKind::List);
        assert_eq!(p.spm, None);
        assert_eq!(p.seed, 42);
    }

    #[test]
    fn fingerprints_are_canonical_over_formatting() {
        let a = parse_request(r#"{"kind":"compile","app":"egpws","cores":2}"#).unwrap();
        let b = parse_request(
            r#"{ "cores": 2, "app": "egpws", "kind": "compile", "id": 99, "progress": true }"#,
        )
        .unwrap();
        assert_eq!(a.request.fingerprint(), b.request.fingerprint());
        let c = parse_request(r#"{"kind":"compile","app":"egpws","cores":4}"#).unwrap();
        assert_ne!(a.request.fingerprint(), c.request.fingerprint());
        let d = parse_request(r#"{"kind":"verify","app":"egpws","cores":2}"#).unwrap();
        assert_ne!(a.request.fingerprint(), d.request.fingerprint());
    }

    #[test]
    fn sweep_requests_parse_axes() {
        let env = parse_request(
            r#"{"kind": "explore", "apps": ["egpws"], "cores": [1, 2],
                "schedulers": ["list", "anneal"], "spms": [null, 4096]}"#,
        )
        .unwrap();
        let Request::Explore(s) = &env.request else {
            panic!("not an explore request");
        };
        assert_eq!(s.cores, vec![1, 2]);
        assert_eq!(s.spm_capacities, vec![None, Some(4096)]);
        assert_eq!(s.len(), 8);
    }

    #[test]
    fn bad_requests_error_cleanly() {
        assert!(parse_request("not json").is_err());
        assert!(parse_request(r#"{"kind": "frobnicate"}"#).is_err());
        assert!(parse_request(r#"{"kind": "compile", "scheduler": "magic"}"#).is_err());
        assert!(parse_request(r#"{"kind": "search", "strategy": "dowsing"}"#).is_err());
        assert!(parse_request(r#"{"kind": "explore", "cores": []}"#).is_err());
        assert!(
            parse_request(r#"{"app": "egpws"}"#).is_err(),
            "kind required"
        );
    }

    #[test]
    fn stats_and_shutdown_have_no_work_fingerprint() {
        let m = parse_request(r#"{"kind": "metrics"}"#).unwrap();
        assert_eq!(m.request, Request::Metrics);
        assert_eq!(m.request.kind(), "metrics");
        assert_eq!(m.request.fingerprint(), None);
        let s = parse_request(r#"{"kind": "stats"}"#).unwrap();
        assert_eq!(s.request.fingerprint(), None);
        let d = parse_request(r#"{"kind": "shutdown"}"#).unwrap();
        assert_eq!(d.request.fingerprint(), None);
    }
}
