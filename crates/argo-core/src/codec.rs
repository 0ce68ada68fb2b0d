//! Binary serialization of pipeline artifacts — the encoding layer of
//! the persistent artifact store (`argo-store`).
//!
//! [`Codec`] is a compact, versionless binary encoding: every value is
//! written as fixed-width little-endian scalars with length-prefixed
//! strings and collections. Versioning, checksums and corruption
//! handling are deliberately **not** part of this layer — the on-disk
//! entry format of `argo-store` wraps every payload in a schema-version
//! header and a checksum, and a payload that fails to [`Codec::decode`]
//! (or decodes to an artifact whose content [`Fingerprint`] disagrees
//! with the recorded one) is treated as a cache miss by the store, so
//! this layer can assume well-formed input and simply report
//! [`DecodeError`] when that assumption fails.
//!
//! Only what the store writes is encoded: [`FrontendArtifact`] and
//! [`CostTable`] (the first two `argo-dse` cache tiers), [`Schedule`]
//! (the schedule tier) and [`Diagnostic`] (inside the point archive's
//! per-point outcomes, which `argo-dse` encodes), with the ids,
//! scalars and collections they are built from.
//!
//! Two encoding strategies coexist:
//!
//! * **structural** — most types write their fields directly
//!   ([`Schedule`], [`Htg`], [`CostTable`], [`Diagnostic`], …);
//! * **canonical-text** — [`Program`] is encoded as its printed source
//!   (`argo_ir::printer`) and decoded by re-parsing and renumbering.
//!   The printed text is already the program's canonical identity (the
//!   session's program fingerprint hashes it), the print→parse
//!   round-trip is pinned by property tests, and every serialized
//!   program is a frontend output (renumbered, depth-first pre-order
//!   statement ids), so re-running [`Program::renumber`] after parsing
//!   reproduces the original ids that the loop-bound table and HTG statement
//!   lists refer to. The derived slot [`Resolution`] is a pure function
//!   of the program and is recomputed on decode rather than stored.
//!
//! The artifact content fingerprint (see [`crate::Artifact`]) is the
//! end-to-end integrity check for the non-structural parts: a decoded
//! [`FrontendArtifact`] re-derives its resolution and re-hashes to the
//! stored fingerprint, so any round-trip infidelity surfaces as a
//! counted store corruption, never as a silently wrong artifact.

use crate::artifact::{CostTable, FrontendArtifact};
use crate::diag::{Diagnostic, ErrorCode, Stage};
use crate::fingerprint::Fingerprint;
use argo_adl::CoreId;
use argo_htg::deps::LoopParallelism;
use argo_htg::{DepEdge, Htg, Task, TaskId, TaskKind};
use argo_ir::ast::Program;
use argo_ir::resolve::Resolution;
use argo_ir::StmtId;
use argo_sched::Schedule;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::Arc;

/// A payload failed to decode (truncated, malformed, or semantically
/// inconsistent — e.g. embedded program text that no longer parses).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError {
    /// What went wrong, for store corruption counters and logs.
    pub msg: String,
}

impl DecodeError {
    fn new(msg: impl Into<String>) -> DecodeError {
        DecodeError { msg: msg.into() }
    }
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "decode error: {}", self.msg)
    }
}

impl std::error::Error for DecodeError {}

/// Append-only byte sink for [`Codec::encode`].
#[derive(Debug, Default)]
pub struct Encoder {
    buf: Vec<u8>,
}

impl Encoder {
    /// Empty encoder.
    pub fn new() -> Encoder {
        Encoder::default()
    }

    /// Finishes encoding and yields the buffer.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Returns `true` if nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Writes one raw byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian `i64`.
    pub fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `usize` as `u64`.
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Writes a boolean as one byte.
    pub fn bool(&mut self, v: bool) {
        self.u8(v as u8);
    }

    /// Writes a length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.usize(s.len());
        self.buf.extend_from_slice(s.as_bytes());
    }
}

/// Bounds-checked cursor over an encoded payload for [`Codec::decode`].
#[derive(Debug)]
pub struct Decoder<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Decoder<'a> {
    /// Decoder over `bytes`, positioned at the start.
    pub fn new(bytes: &'a [u8]) -> Decoder<'a> {
        Decoder { buf: bytes, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.remaining() < n {
            return Err(DecodeError::new(format!(
                "truncated payload: wanted {n} bytes at offset {}, have {}",
                self.pos,
                self.remaining()
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one raw byte.
    pub fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads a little-endian `i64`.
    pub fn i64(&mut self) -> Result<i64, DecodeError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads a `u64` written by [`Encoder::usize`].
    pub fn usize(&mut self) -> Result<usize, DecodeError> {
        usize::try_from(self.u64()?).map_err(|_| DecodeError::new("usize overflow"))
    }

    /// Reads a collection length and sanity-checks it against the
    /// remaining payload (every element encodes to ≥ 1 byte, so a
    /// length larger than the remainder is corruption, not a huge
    /// collection — rejecting it here keeps garbage bytes from turning
    /// into multi-gigabyte allocations).
    pub fn read_len(&mut self) -> Result<usize, DecodeError> {
        let n = self.usize()?;
        if n > self.remaining() {
            return Err(DecodeError::new(format!(
                "implausible collection length {n} with {} bytes remaining",
                self.remaining()
            )));
        }
        Ok(n)
    }

    /// Reads a boolean byte.
    pub fn bool(&mut self) -> Result<bool, DecodeError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(DecodeError::new(format!("invalid bool byte {b}"))),
        }
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, DecodeError> {
        let n = self.read_len()?;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| DecodeError::new("invalid UTF-8 string"))
    }

    /// Fails unless the payload is fully consumed — trailing bytes mean
    /// the payload was written by a different (newer) encoding.
    pub fn expect_end(&self) -> Result<(), DecodeError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(DecodeError::new(format!(
                "{} trailing bytes after value",
                self.remaining()
            )))
        }
    }
}

/// Types with a canonical binary encoding for the persistent store.
pub trait Codec: Sized {
    /// Appends this value's encoding to `e`.
    fn encode(&self, e: &mut Encoder);

    /// Decodes one value from the cursor.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] on truncated or malformed input.
    fn decode(d: &mut Decoder<'_>) -> Result<Self, DecodeError>;

    /// Encodes `self` into a fresh byte buffer.
    fn to_bytes(&self) -> Vec<u8> {
        let mut e = Encoder::new();
        self.encode(&mut e);
        e.into_bytes()
    }

    /// Decodes a value from `bytes`, requiring full consumption.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] on truncated, malformed or trailing
    /// input.
    fn from_bytes(bytes: &[u8]) -> Result<Self, DecodeError> {
        let mut d = Decoder::new(bytes);
        let v = Self::decode(&mut d)?;
        d.expect_end()?;
        Ok(v)
    }
}

// --- scalar and generic impls -------------------------------------------

impl Codec for u64 {
    fn encode(&self, e: &mut Encoder) {
        e.u64(*self);
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        d.u64()
    }
}

impl Codec for usize {
    fn encode(&self, e: &mut Encoder) {
        e.usize(*self);
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        d.usize()
    }
}

impl Codec for bool {
    fn encode(&self, e: &mut Encoder) {
        e.bool(*self);
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        d.bool()
    }
}

impl Codec for f64 {
    fn encode(&self, e: &mut Encoder) {
        e.u64(self.to_bits());
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(f64::from_bits(d.u64()?))
    }
}

impl Codec for String {
    fn encode(&self, e: &mut Encoder) {
        e.str(self);
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        d.str()
    }
}

impl<T: Codec> Codec for Vec<T> {
    fn encode(&self, e: &mut Encoder) {
        e.usize(self.len());
        for v in self {
            v.encode(e);
        }
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let n = d.read_len()?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(T::decode(d)?);
        }
        Ok(out)
    }
}

impl<T: Codec> Codec for Option<T> {
    fn encode(&self, e: &mut Encoder) {
        match self {
            None => e.u8(0),
            Some(v) => {
                e.u8(1);
                v.encode(e);
            }
        }
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        match d.u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(d)?)),
            b => Err(DecodeError::new(format!("invalid Option tag {b}"))),
        }
    }
}

impl<T: Codec, U: Codec> Codec for Result<T, U> {
    fn encode(&self, e: &mut Encoder) {
        match self {
            Ok(v) => {
                e.u8(0);
                v.encode(e);
            }
            Err(v) => {
                e.u8(1);
                v.encode(e);
            }
        }
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        match d.u8()? {
            0 => Ok(Ok(T::decode(d)?)),
            1 => Ok(Err(U::decode(d)?)),
            b => Err(DecodeError::new(format!("invalid Result tag {b}"))),
        }
    }
}

impl<K: Codec + Ord, V: Codec> Codec for BTreeMap<K, V> {
    fn encode(&self, e: &mut Encoder) {
        e.usize(self.len());
        for (k, v) in self {
            k.encode(e);
            v.encode(e);
        }
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let n = d.read_len()?;
        let mut out = BTreeMap::new();
        for _ in 0..n {
            let k = K::decode(d)?;
            let v = V::decode(d)?;
            out.insert(k, v);
        }
        Ok(out)
    }
}

impl<T: Codec + Ord> Codec for BTreeSet<T> {
    fn encode(&self, e: &mut Encoder) {
        e.usize(self.len());
        for v in self {
            v.encode(e);
        }
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let n = d.read_len()?;
        let mut out = BTreeSet::new();
        for _ in 0..n {
            out.insert(T::decode(d)?);
        }
        Ok(out)
    }
}

// --- id newtypes --------------------------------------------------------

impl Codec for StmtId {
    fn encode(&self, e: &mut Encoder) {
        e.u32(self.0);
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(StmtId(d.u32()?))
    }
}

impl Codec for TaskId {
    fn encode(&self, e: &mut Encoder) {
        e.usize(self.0);
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(TaskId(d.usize()?))
    }
}

impl Codec for CoreId {
    fn encode(&self, e: &mut Encoder) {
        e.usize(self.0);
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(CoreId(d.usize()?))
    }
}

impl Codec for Fingerprint {
    fn encode(&self, e: &mut Encoder) {
        e.u64(self.0);
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(Fingerprint(d.u64()?))
    }
}

// --- diagnostics --------------------------------------------------------

/// Decodes a one-byte tag as an index into `table`, a variant table
/// listed in declaration order (the order `variant as u8` encodes).
fn decode_tag<T: Copy>(d: &mut Decoder<'_>, table: &[T], what: &str) -> Result<T, DecodeError> {
    let b = d.u8()?;
    table
        .get(usize::from(b))
        .copied()
        .ok_or_else(|| DecodeError::new(format!("invalid {what} tag {b}")))
}

impl Codec for Stage {
    fn encode(&self, e: &mut Encoder) {
        e.u8(*self as u8);
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        decode_tag(d, &Stage::ALL, "Stage")
    }
}

impl Codec for ErrorCode {
    fn encode(&self, e: &mut Encoder) {
        e.u8(*self as u8);
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        decode_tag(d, &ErrorCode::ALL, "ErrorCode")
    }
}

impl Codec for Diagnostic {
    fn encode(&self, e: &mut Encoder) {
        self.stage.encode(e);
        self.code.encode(e);
        self.entity.encode(e);
        self.message.encode(e);
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(Diagnostic {
            stage: Stage::decode(d)?,
            code: ErrorCode::decode(d)?,
            entity: Option::decode(d)?,
            message: String::decode(d)?,
        })
    }
}

// --- IR: the program travels as canonical printed text -----------------

impl Codec for Program {
    fn encode(&self, e: &mut Encoder) {
        e.str(&argo_ir::printer::print_program(self));
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let src = d.str()?;
        let mut program = argo_ir::parse::parse_program(&src)
            .map_err(|e| DecodeError::new(format!("embedded program does not parse: {e}")))?;
        // Every serialized program is a frontend output, i.e. already
        // renumbered depth-first pre-order; re-running the same pass
        // after parsing reproduces the original statement ids that
        // sibling fields (loop bounds, HTG statement lists) refer to.
        program.renumber();
        Ok(program)
    }
}

// --- HTG ----------------------------------------------------------------

impl Codec for LoopParallelism {
    fn encode(&self, e: &mut Encoder) {
        match self {
            LoopParallelism::Doall => e.u8(0),
            LoopParallelism::Reduction(vars) => {
                e.u8(1);
                vars.encode(e);
            }
            LoopParallelism::Sequential => e.u8(2),
        }
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        match d.u8()? {
            0 => Ok(LoopParallelism::Doall),
            1 => Ok(LoopParallelism::Reduction(Vec::decode(d)?)),
            2 => Ok(LoopParallelism::Sequential),
            b => Err(DecodeError::new(format!("invalid LoopParallelism tag {b}"))),
        }
    }
}

impl Codec for TaskKind {
    fn encode(&self, e: &mut Encoder) {
        match self {
            TaskKind::Simple => e.u8(0),
            TaskKind::LoopNode { parallelism } => {
                e.u8(1);
                parallelism.encode(e);
            }
            TaskKind::CondNode => e.u8(2),
            TaskKind::CallNode { callee } => {
                e.u8(3);
                callee.encode(e);
            }
        }
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        match d.u8()? {
            0 => Ok(TaskKind::Simple),
            1 => Ok(TaskKind::LoopNode {
                parallelism: LoopParallelism::decode(d)?,
            }),
            2 => Ok(TaskKind::CondNode),
            3 => Ok(TaskKind::CallNode {
                callee: String::decode(d)?,
            }),
            b => Err(DecodeError::new(format!("invalid TaskKind tag {b}"))),
        }
    }
}

impl Codec for Task {
    fn encode(&self, e: &mut Encoder) {
        self.id.encode(e);
        self.name.encode(e);
        self.kind.encode(e);
        self.stmts.encode(e);
        self.reads.encode(e);
        self.live_reads.encode(e);
        self.writes.encode(e);
        self.children.encode(e);
        self.parent.encode(e);
        self.access_counts.encode(e);
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(Task {
            id: TaskId::decode(d)?,
            name: String::decode(d)?,
            kind: TaskKind::decode(d)?,
            stmts: Vec::decode(d)?,
            reads: BTreeSet::decode(d)?,
            live_reads: BTreeSet::decode(d)?,
            writes: BTreeSet::decode(d)?,
            children: Vec::decode(d)?,
            parent: Option::decode(d)?,
            access_counts: BTreeMap::decode(d)?,
        })
    }
}

impl Codec for DepEdge {
    fn encode(&self, e: &mut Encoder) {
        self.from.encode(e);
        self.to.encode(e);
        self.vars.encode(e);
        self.conflicts.encode(e);
        self.bytes.encode(e);
        self.ordering_only.encode(e);
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(DepEdge {
            from: TaskId::decode(d)?,
            to: TaskId::decode(d)?,
            vars: BTreeSet::decode(d)?,
            conflicts: BTreeSet::decode(d)?,
            bytes: u64::decode(d)?,
            ordering_only: bool::decode(d)?,
        })
    }
}

impl Codec for Htg {
    fn encode(&self, e: &mut Encoder) {
        self.tasks.encode(e);
        self.edges.encode(e);
        self.top_level.encode(e);
        self.function.encode(e);
        self.privatizable.encode(e);
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(Htg {
            tasks: Vec::decode(d)?,
            edges: Vec::decode(d)?,
            top_level: Vec::decode(d)?,
            function: String::decode(d)?,
            privatizable: BTreeSet::decode(d)?,
        })
    }
}

// --- scheduling ----------------------------------------------------------

impl Codec for Schedule {
    fn encode(&self, e: &mut Encoder) {
        self.assignment.encode(e);
        self.start.encode(e);
        self.finish.encode(e);
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(Schedule {
            assignment: Vec::decode(d)?,
            start: Vec::decode(d)?,
            finish: Vec::decode(d)?,
        })
    }
}

// --- pipeline artifacts -------------------------------------------------

impl Codec for CostTable {
    fn encode(&self, e: &mut Encoder) {
        let map: &BTreeMap<TaskId, u64> = self;
        map.encode(e);
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(CostTable::from(BTreeMap::decode(d)?))
    }
}

impl Codec for FrontendArtifact {
    fn encode(&self, e: &mut Encoder) {
        self.program.encode(e);
        self.bounds.encode(e);
        self.htg.encode(e);
        // `resolution` is not written: it is a pure function of the
        // program, recomputed on decode (and cross-checked by the
        // artifact content fingerprint the store records).
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let program = Program::decode(d)?;
        let bounds = BTreeMap::decode(d)?;
        let htg = Htg::decode(d)?;
        let resolution = Resolution::of(&program);
        Ok(FrontendArtifact {
            program: Arc::new(program),
            resolution: Arc::new(resolution),
            bounds: Arc::new(bounds),
            htg: Arc::new(htg),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::Artifact;
    use crate::{ToolchainConfig, Toolflow};
    use argo_adl::Platform;

    const SRC: &str = "real main(real a[16], real b[16]) {\n\
                       real s; int i;\n\
                       s = 0.0;\n\
                       for (i = 0; i < 16; i = i + 1) { b[i] = a[i] * 2.0; }\n\
                       for (i = 0; i < 16; i = i + 1) { s = s + b[i]; }\n\
                       return s;\n\
                       }";

    fn session_artifacts() -> (FrontendArtifact, CostTable) {
        let program = argo_ir::parse::parse_program(SRC).unwrap();
        let platform = Platform::xentium_manycore(2);
        let flow = Toolflow::new(program, "main")
            .platform(&platform)
            .config(ToolchainConfig::default());
        let artifact = flow.run_frontend().unwrap();
        let costs = flow.run_seed_costs(&artifact).unwrap();
        (artifact, costs)
    }

    #[test]
    fn scalars_and_collections_round_trip() {
        let v: Vec<usize> = vec![1, 2, 3];
        assert_eq!(Vec::<usize>::from_bytes(&v.to_bytes()).unwrap(), v);
        let m: BTreeMap<String, u64> = [("a".to_string(), 1), ("b".to_string(), 2)].into();
        assert_eq!(
            BTreeMap::<String, u64>::from_bytes(&m.to_bytes()).unwrap(),
            m
        );
        let o: Option<String> = Some("hi".into());
        assert_eq!(Option::<String>::from_bytes(&o.to_bytes()).unwrap(), o);
        let r: Result<u64, String> = Err("nope".into());
        assert_eq!(Result::<u64, String>::from_bytes(&r.to_bytes()).unwrap(), r);
    }

    #[test]
    fn frontend_artifact_round_trips_with_equal_fingerprint() {
        let (artifact, _) = session_artifacts();
        let bytes = artifact.to_bytes();
        let back = FrontendArtifact::from_bytes(&bytes).unwrap();
        assert_eq!(back.fingerprint(), artifact.fingerprint());
        assert_eq!(back.program, artifact.program);
        assert_eq!(back.bounds, artifact.bounds);
        assert_eq!(back.htg, artifact.htg);
    }

    #[test]
    fn cost_table_round_trips() {
        let (_, costs) = session_artifacts();
        let back = CostTable::from_bytes(&costs.to_bytes()).unwrap();
        assert_eq!(back, costs);
        assert_eq!(back.fingerprint(), costs.fingerprint());
    }

    #[test]
    fn diagnostics_round_trip() {
        let d = Diagnostic::new(Stage::Backend, ErrorCode::MemAssignFailed, "boom")
            .with_entity("core3");
        assert_eq!(Diagnostic::from_bytes(&d.to_bytes()).unwrap(), d);
        let plain = Diagnostic::new(Stage::Verify, ErrorCode::DataRace, "race");
        assert_eq!(Diagnostic::from_bytes(&plain.to_bytes()).unwrap(), plain);
    }

    #[test]
    fn truncation_and_garbage_fail_loudly() {
        let (artifact, _) = session_artifacts();
        let bytes = artifact.to_bytes();
        for cut in [0, 1, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                FrontendArtifact::from_bytes(&bytes[..cut]).is_err(),
                "truncation at {cut} must not decode"
            );
        }
        let garbage: Vec<u8> = (0..256).map(|i| (i * 31 % 251) as u8).collect();
        assert!(FrontendArtifact::from_bytes(&garbage).is_err());
        assert!(Schedule::from_bytes(&garbage).is_err());
        // Trailing bytes are rejected too (newer-writer detection).
        let mut padded = bytes;
        padded.push(0);
        assert!(FrontendArtifact::from_bytes(&padded).is_err());
    }

    #[test]
    fn implausible_lengths_do_not_allocate() {
        // A huge length prefix with no payload behind it must error out
        // instead of attempting a multi-gigabyte allocation.
        let mut e = Encoder::new();
        e.u64(u64::MAX / 2);
        assert!(Vec::<u64>::from_bytes(&e.into_bytes()).is_err());
    }
}
