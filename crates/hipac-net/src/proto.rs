//! The hipac-net wire protocol.
//!
//! Every frame on the wire is a 4-byte big-endian length followed by
//! that many payload bytes. The first payload byte is the frame kind:
//!
//! ```text
//! [u32 len] [kind u8] [body ...]
//!
//! kind 0  Request   uvarint id, meta (client_id, seq, deadline_ms
//!                   uvarints, 0 = absent), opcode u8, command body
//! kind 1  Response  uvarint id, status u8, reply body
//! kind 2  Push      push body (server -> client, unsolicited)
//! kind 3  Repl      replication stream message (primary -> replica,
//!                   unsolicited after ReplSubscribe)
//! ```
//!
//! Bodies reuse the `hipac-common` codec: LEB128 varints, length-
//! prefixed strings, tag-byte self-describing [`Value`]s. The command
//! set is the application interface of the paper's Figure 4.1 — data
//! operations, transaction operations, event operations — plus
//! `Subscribe`, which enables the §4.1 role reversal over the network:
//! rule actions of the form *application request* are pushed to
//! subscribed clients as [`PushEvent`] frames.
//!
//! Frames are capped at [`MAX_FRAME`] bytes; both ends reject larger
//! lengths before allocating.
//!
//! Every type here declares its encoding once, with the workspace
//! codec's `wire_enum!`/`wire_struct!` (see `hipac_common::codec`): a
//! variant's tag and its fields' wire order sit in one row, and the
//! encoder and decoder are generated from it. Only [`WireAttr`] (two
//! flags packed in one byte) is written by hand.
//!
//! **Adding a command** takes a variant on [`Command`], one row in its
//! `wire_enum!` with the next unused opcode, a sample in
//! `tests/golden/mod.rs` (the golden-bytes test fails until every
//! opcode has one), and its handler in `server/dispatch.rs`. Opcodes,
//! statuses and kinds are stable on the wire: never renumber, only
//! append.

use hipac_common::codec::{self, get_byte, Wire};
use hipac_common::{wire_enum, wire_struct, HipacError, ObjectId, TxnId, Value};
use hipac_object::AttrDef;
use std::collections::HashMap;
use std::fmt;
use std::io::{Read, Write};

/// Upper bound on a frame payload. Large enough for bulk query
/// results, small enough that a hostile length prefix cannot drive an
/// allocation storm.
pub const MAX_FRAME: usize = 16 * 1024 * 1024;

/// The one protocol version this build speaks. A session opens with
/// `Ping { version }`; a peer offering any other version is refused
/// with a typed `Unsupported` error, so both ends always see the layout
/// in this module: idempotency metadata on every request, sequenced
/// and acknowledged pushes, the `Auth` opcode, the replication stream
/// with its epoch and digest fields, and the full Stats body.
pub const PROTOCOL_VERSION: u32 = 9;

/// Errors surfaced by the protocol layer and the client.
#[derive(Debug, Clone, PartialEq)]
pub enum WireError {
    /// The server executed the command and the engine returned an
    /// error. `kind` is the `HipacError` variant name; `message` its
    /// display text.
    Remote { kind: String, message: String },
    /// Transport failure (connection reset, timeout, ...).
    Io(String),
    /// Malformed or unexpected frame.
    Protocol(String),
    /// The connection failed while a request was in flight and the
    /// retry budget (if any) was exhausted before a definite reply
    /// arrived. The request may or may not have been applied — it is
    /// *at most once*; the client remains usable and reconnects on
    /// the next request.
    Transport(String),
    /// The request's deadline expired on the client before a definite
    /// reply arrived.
    Timeout(String),
}

impl WireError {
    /// True when the remote error means the enclosing transaction is
    /// dead (mirrors `HipacError::is_txn_fatal`).
    pub fn is_txn_fatal(&self) -> bool {
        matches!(
            self,
            WireError::Remote { kind, .. }
                if kind == "Deadlock"
                    || kind == "TxnAborted"
                    || kind == "LockTimeout"
                    || kind == "DeadlineExceeded"
        )
    }

    /// True when the error leaves the request outcome unknown
    /// (transport failure or client-side timeout): the command was
    /// applied *at most once*, and only a reply (or server-side state)
    /// can say which.
    pub fn is_indefinite(&self) -> bool {
        matches!(self, WireError::Transport(_) | WireError::Timeout(_))
    }
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Remote { kind, message } => write!(f, "remote {kind}: {message}"),
            WireError::Io(msg) => write!(f, "connection error: {msg}"),
            WireError::Protocol(msg) => write!(f, "protocol error: {msg}"),
            WireError::Transport(msg) => write!(f, "transport failure (outcome unknown): {msg}"),
            WireError::Timeout(msg) => write!(f, "request deadline expired: {msg}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        WireError::Io(e.to_string())
    }
}

impl From<HipacError> for WireError {
    fn from(e: HipacError) -> Self {
        WireError::Remote {
            kind: variant_name(&e).to_owned(),
            message: e.to_string(),
        }
    }
}

/// The `HipacError` variant name, used as the wire error kind so the
/// client can classify without shipping the whole enum.
fn variant_name(e: &HipacError) -> &'static str {
    use HipacError::*;
    match e {
        UnknownClass(_) => "UnknownClass",
        UnknownAttribute(_) => "UnknownAttribute",
        UnknownObject(_) => "UnknownObject",
        DuplicateName(_) => "DuplicateName",
        TypeError(_) => "TypeError",
        ConstraintViolation(_) => "ConstraintViolation",
        InUse(_) => "InUse",
        UnknownTxn(_) => "UnknownTxn",
        InvalidTxnState { .. } => "InvalidTxnState",
        Deadlock(_) => "Deadlock",
        LockTimeout(_) => "LockTimeout",
        TxnAborted(_) => "TxnAborted",
        ParentNotActive(_) => "ParentNotActive",
        DeadlineExceeded(_) => "DeadlineExceeded",
        UnknownEvent(_) => "UnknownEvent",
        UnknownRule(_) => "UnknownRule",
        DuplicateRule(_) => "DuplicateRule",
        EventParamMismatch(_) => "EventParamMismatch",
        NoDerivableEvent(_) => "NoDerivableEvent",
        CascadeLimit { .. } => "CascadeLimit",
        NoApplicationHandler(_) => "NoApplicationHandler",
        UnboundParameter(_) => "UnboundParameter",
        ParseError { .. } => "ParseError",
        EvalError(_) => "EvalError",
        Io(_) => "Io",
        Corruption(_) => "Corruption",
        StorageNotFound(_) => "StorageNotFound",
        RecordTooLarge { .. } => "RecordTooLarge",
        WalCorrupt(_) => "WalCorrupt",
        ReplGap { .. } => "ReplGap",
        StaleEpoch { .. } => "StaleEpoch",
        Internal(_) => "Internal",
    }
}

/// An attribute definition as carried by `CreateClass`.
#[derive(Debug, Clone, PartialEq)]
pub struct WireAttr {
    pub name: String,
    /// `ValueType`'s wire tag. Kept a raw byte so an unknown type is
    /// the command's `TypeError`, not a malformed frame.
    pub ty: u8,
    pub nullable: bool,
    pub indexed: bool,
}

/// Written by hand: `nullable` and `indexed` share one flag byte (bits
/// 0 and 1); a flag byte with any other bit set is rejected.
impl Wire for WireAttr {
    fn put(&self, buf: &mut Vec<u8>) {
        self.name.put(buf);
        buf.push(self.ty);
        buf.push(u8::from(self.nullable) | (u8::from(self.indexed) << 1));
    }

    fn get(buf: &[u8], pos: &mut usize) -> hipac_common::Result<Self> {
        let name = String::get(buf, pos)?;
        let ty = get_byte(buf, pos)?;
        let flags = get_byte(buf, pos)?;
        if flags > 0b11 {
            return Err(HipacError::Corruption(format!(
                "bad attribute flags {flags:#04x}"
            )));
        }
        Ok(WireAttr {
            name,
            ty,
            nullable: flags & 1 != 0,
            indexed: flags & 2 != 0,
        })
    }
}

impl From<AttrDef> for WireAttr {
    fn from(a: AttrDef) -> Self {
        WireAttr {
            name: a.name,
            ty: codec::to_bytes(&a.ty)[0],
            nullable: a.nullable,
            indexed: a.indexed,
        }
    }
}

impl TryFrom<WireAttr> for AttrDef {
    type Error = HipacError;

    fn try_from(a: WireAttr) -> Result<Self, HipacError> {
        let ty = codec::from_bytes(&[a.ty])
            .map_err(|_| HipacError::TypeError(format!("bad type code {}", a.ty)))?;
        Ok(AttrDef {
            name: a.name,
            ty,
            nullable: a.nullable,
            indexed: a.indexed,
        })
    }
}

/// A query result row on the wire.
#[derive(Debug, Clone, PartialEq)]
pub struct WireRow {
    pub oid: u64,
    pub class: u64,
    pub values: Vec<Value>,
}

wire_struct! { WireRow { oid, class, values } }

wire_struct! {
    /// Engine statistics snapshot carried by the `Stats` reply, every
    /// field a uvarint in this order. Mirrors `hipac::EngineStats`;
    /// kept as a separate wire struct so the protocol stays
    /// source-stable if the facade grows fields. Every field is
    /// required: a short body is a truncated frame.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct WireStats {
        // ---- rule processing and firing pool ----
        pub signals_processed: u64,
        pub rules_triggered: u64,
        pub conditions_satisfied: u64,
        pub actions_executed: u64,
        pub store_evaluations: u64,
        pub delta_evaluations: u64,
        pub cache_hits: u64,
        pub deferred_txns: u64,
        pub deferred_firings: u64,
        pub pool_outstanding: u64,
        pub separate_errors: u64,
        pub firings_parallel: u64,
        pub pool_queue_depth: u64,
        // ---- resilience ----
        pub active_connections: u64,
        pub shed_requests: u64,
        pub dedup_hits: u64,
        pub separate_retries: u64,
        pub separate_dead_letters: u64,
        // ---- durable exactly-once ----
        pub shed_adaptive: u64,
        pub journal_replays: u64,
        pub pushes_redelivered: u64,
        // ---- replication ----
        pub repl_role: u64,
        pub last_shipped_lsn: u64,
        pub last_applied_lsn: u64,
        pub repl_lag_bytes: u64,
        pub replica_pushes: u64,
        pub promotions: u64,
        // ---- rule matching ----
        pub match_index_nodes: u64,
        pub match_probes: u64,
        pub match_pruned: u64,
        // Always 0: no match memo counts them. Kept so the frame's
        // layout stays fixed.
        pub memo_hits: u64,
        pub memo_invalidations: u64,
        // ---- group commit and reactor ----
        pub group_commits: u64,
        pub group_commit_txns: u64,
        pub group_commit_largest: u64,
        // Always 1: every worker waits on one epoll set.
        pub reactor_shards: u64,
        // ---- tenancy and breakers. The server encodes breaker_trips /
        // breaker_resets as zero; the client overlays its process-wide
        // circuit-breaker registry in `HipacClient::stats`. ----
        pub auth_failures: u64,
        pub tenants_active: u64,
        pub tenant_shed_requests: u64,
        pub pushes_shed: u64,
        pub subscribers_evicted: u64,
        pub breaker_trips: u64,
        pub breaker_resets: u64,
        // ---- epoch fencing, quorum and anti-entropy ----
        pub repl_epoch: u64,
        pub repl_fence_prev: u64,
        pub repl_fence_start: u64,
        pub repl_peers: u64,
        pub repl_min_peer_applied: u64,
        pub repl_digest_ok_peers: u64,
        pub repl_digest_mismatches: u64,
        pub repl_quorum: u64,
        pub repl_quorum_ok: u64,
    }
}

/// Client-to-server commands: the Figure 4.1 operation surface.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Liveness check and version handshake.
    Ping { version: u32 },
    // ---- transaction operations ----
    Begin,
    BeginChild { parent: TxnId },
    Commit { txn: TxnId },
    Abort { txn: TxnId },
    // ---- data operations ----
    CreateClass {
        txn: TxnId,
        name: String,
        superclass: Option<String>,
        attrs: Vec<WireAttr>,
    },
    Insert {
        txn: TxnId,
        class: String,
        values: Vec<Value>,
    },
    Update {
        txn: TxnId,
        oid: u64,
        assignments: Vec<(String, Value)>,
    },
    Delete { txn: TxnId, oid: u64 },
    /// Query text in the `hipac-object` surface syntax
    /// (`from <class> [where <expr>] [select a, b]`), with optional
    /// named parameters.
    Query {
        txn: TxnId,
        text: String,
        params: HashMap<String, Value>,
    },
    // ---- event operations ----
    DefineEvent { name: String, params: Vec<String> },
    SignalEvent {
        name: String,
        args: HashMap<String, Value>,
        txn: Option<TxnId>,
    },
    // ---- rule operations ----
    /// `hipac-rules` codec bytes of a `RuleDef` (see
    /// `hipac_rules::codec::encode_rule`).
    CreateRule { txn: TxnId, rule: Vec<u8> },
    DropRule { txn: TxnId, name: String },
    EnableRule { txn: TxnId, name: String },
    DisableRule { txn: TxnId, name: String },
    // ---- application operations (§4.1 role reversal) ----
    /// Register this connection as the application server for handler
    /// `name`: rule actions addressed to it are pushed here.
    Subscribe { handler: String },
    Unsubscribe { handler: String },
    /// Acknowledge the push frame with sequence `seq` on subscription
    /// `handler`: the server drops it from the redelivery outbox. Sent
    /// by the client after the push handler returns, with frame id 0:
    /// fire-and-forget, so the server sends no response (any other id
    /// is answered).
    AckPush { handler: String, seq: u64 },
    // ---- observability ----
    Stats,
    // ---- replication ----
    /// Register this connection as a replication follower. The server
    /// replies `Ok` and then streams [`ReplMsg`] frames on the same
    /// connection: batches from `start_lsn` (or a snapshot when that
    /// LSN is out of range) followed by the live tail.
    ///
    /// `epoch` is the subscriber's replication epoch. A
    /// subscriber *behind* the primary's epoch gets a snapshot
    /// bootstrap regardless of `start_lsn` — LSN spaces are never
    /// comparable across epochs. A subscriber *ahead* of the primary
    /// proves the primary has been deposed: the request is refused
    /// with a typed `StaleEpoch` error and the ex-primary fences
    /// itself read-only.
    ReplSubscribe { start_lsn: u64, epoch: u64 },
    /// Follower → primary: the follower's store durably reflects the
    /// primary's log up to `applied_lsn`. Drives the primary's
    /// semi-sync commit gate and its lag gauges. Sent with frame id 0:
    /// fire-and-forget, so the server sends no response (any other id
    /// is answered).
    ///
    /// `epoch`: the sender's replication epoch — a value newer
    /// than the receiver's fences the receiver (this is also the heal
    /// path's demote signal). `digest`: the sender's anti-entropy
    /// fold over every batch applied this subscription (see
    /// `hipac_storage::fold_digest`); the primary compares it against
    /// its per-peer shipped fold at `applied_lsn`.
    ReplProgress { applied_lsn: u64, epoch: u64, digest: u64 },
    // ---- authentication ----
    /// Bind this connection to identity `client_id`. `token` is
    /// `HMAC-SHA256(server_secret, client_id.to_be_bytes())` (see
    /// `hipac_net::auth::session_token`). On a server with auth
    /// enabled, keyed requests, push redelivery, and `AckPush` are only
    /// honored once the session has authenticated as the matching
    /// identity; a bad token gets a typed `AuthFailed` refusal.
    Auth { client_id: u64, token: Vec<u8> },
}

wire_enum! {
    Command {
        0 => Ping { version },
        1 => Begin,
        2 => BeginChild { parent },
        3 => Commit { txn },
        4 => Abort { txn },
        5 => CreateClass { txn, name, superclass, attrs },
        6 => Insert { txn, class, values },
        7 => Update { txn, oid, assignments },
        8 => Delete { txn, oid },
        9 => Query { txn, text, params },
        10 => DefineEvent { name, params },
        11 => SignalEvent { name, args, txn },
        12 => CreateRule { txn, rule },
        13 => DropRule { txn, name },
        14 => EnableRule { txn, name },
        15 => DisableRule { txn, name },
        16 => Subscribe { handler },
        17 => Unsubscribe { handler },
        18 => Stats,
        19 => AckPush { handler, seq },
        20 => ReplSubscribe { start_lsn, epoch },
        21 => ReplProgress { applied_lsn, epoch, digest },
        22 => Auth { client_id, token },
    }
}

/// Server replies.
#[derive(Debug, Clone, PartialEq)]
pub enum Reply {
    /// Success with no payload.
    Ok,
    /// Pong, echoing the server's protocol version.
    Pong { version: u32 },
    /// A transaction id (`Begin`, `BeginChild`).
    Txn(TxnId),
    /// A newly created object (`Insert`).
    Object(ObjectId),
    /// A catalog id (`CreateClass`, `DefineEvent`, `CreateRule`).
    Id(u64),
    /// Query rows.
    Rows(Vec<WireRow>),
    /// Engine statistics (boxed: the stats block dwarfs every other
    /// variant).
    Stats(Box<WireStats>),
    /// The engine rejected the command.
    Err { kind: String, message: String },
}

wire_enum! {
    Reply {
        0 => Ok,
        1 => Pong { version },
        2 => Txn(txn),
        3 => Object(oid),
        4 => Id(id),
        5 => Rows(rows),
        6 => Stats(stats),
        7 => Err { kind, message },
    }
}

impl Reply {
    /// Serialize standalone (no frame envelope). Used by the server's
    /// reply journal, which persists cached replies by value.
    pub fn to_bytes(&self) -> Vec<u8> {
        codec::to_bytes(self)
    }

    /// Inverse of [`Reply::to_bytes`]; rejects trailing garbage.
    pub fn from_bytes(buf: &[u8]) -> Result<Reply, WireError> {
        codec::from_bytes(buf).map_err(protocol)
    }
}

/// The answer to `Ping { version: offered }`: `Pong` when the peer
/// speaks [`PROTOCOL_VERSION`], a typed `Unsupported` refusal otherwise.
pub fn ping_reply(offered: u32) -> Reply {
    if offered == PROTOCOL_VERSION {
        Reply::Pong {
            version: PROTOCOL_VERSION,
        }
    } else {
        Reply::Err {
            kind: "Unsupported".to_owned(),
            message: format!("peer speaks protocol v{offered}; this node speaks v{PROTOCOL_VERSION}"),
        }
    }
}

/// Server-push payload: a rule action requested service from the
/// application (§4.1 role reversal).
#[derive(Debug, Clone, PartialEq)]
pub struct PushEvent {
    /// Per-subscription sequence number. Starts at 1 and is
    /// monotonic per handler; the client acks it with
    /// [`Command::AckPush`] and dedups redeliveries by it. `0` means
    /// "unsequenced" and is neither acked nor deduplicated.
    pub seq: u64,
    /// The handler name the rule action addressed.
    pub handler: String,
    /// The request string from the rule action.
    pub request: String,
    /// Event parameter bindings of the triggering signal.
    pub args: HashMap<String, Value>,
}

wire_struct! { PushEvent { seq, handler, request, args } }

/// Request metadata: an idempotency key and a deadline. `0` means
/// "absent" for every field, so plain fire-once requests pay three zero
/// bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RequestMeta {
    /// Stable identity of the sending client, surviving reconnects.
    /// Together with `seq` it forms the idempotency key for the
    /// server's dedup window.
    pub client_id: u64,
    /// Client-monotonic request sequence number. A retry re-sends the
    /// *same* `(client_id, seq)`, so the server can replay the cached
    /// reply instead of re-executing.
    pub seq: u64,
    /// Relative deadline in milliseconds from server receipt. The
    /// server propagates it into lock waits; past-deadline requests
    /// abort with `DeadlineExceeded` instead of waiting on.
    pub deadline_ms: u64,
}

wire_struct! { RequestMeta { client_id, seq, deadline_ms } }

/// One message on the replication stream (frame kind 3, primary →
/// replica, unsolicited after `ReplSubscribe`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplMsg {
    /// One committed WAL batch. Applying it and recording `next_lsn`
    /// as the follower's watermark must be atomic (see
    /// `DurableStore::apply_replicated_run`, which applies the batches
    /// that arrive together as one run).
    ///
    /// `prev_lsn` is the shipper's stream-chain position before this
    /// batch — exactly the watermark the follower must hold for the
    /// batch to apply (it can exceed `start_lsn` only by skipped
    /// checkpoint/abort markers, never by data). A mismatch means the
    /// stream dropped or replayed a batch; the follower treats it as
    /// fatal and resubscribes from its durable watermark instead of
    /// silently diverging.
    /// `epoch`: the shipping primary's replication epoch. A
    /// follower that has observed a newer epoch refuses the batch
    /// (`StaleEpoch`) instead of absorbing writes from a deposed
    /// primary; a follower on an older epoch adopts this one.
    Batch {
        prev_lsn: u64,
        start_lsn: u64,
        next_lsn: u64,
        txn: TxnId,
        ops: Vec<hipac_storage::StoreOp>,
        epoch: u64,
    },
    /// The follower's resume LSN fell out of the primary's retained
    /// log: a full state transfer follows as chunks, then an end
    /// marker. The follower buffers chunks and installs them
    /// atomically on `SnapshotEnd` (whose `epoch` the follower
    /// adopts at the same instant).
    SnapshotBegin { snapshot_lsn: u64 },
    SnapshotChunk { pairs: Vec<(Vec<u8>, Vec<u8>)> },
    SnapshotEnd { snapshot_lsn: u64, epoch: u64 },
    /// Idle keep-alive carrying the primary's durable frontier so the
    /// follower can compute byte lag even when nothing ships, plus
    /// the primary's epoch — the anti-entropy exchange rides the
    /// progress replies these provoke.
    Heartbeat { durable_lsn: u64, epoch: u64 },
}

wire_enum! {
    ReplMsg {
        0 => Batch { prev_lsn, start_lsn, next_lsn, txn, ops, epoch },
        1 => SnapshotBegin { snapshot_lsn },
        2 => SnapshotChunk { pairs },
        3 => SnapshotEnd { snapshot_lsn, epoch },
        4 => Heartbeat { durable_lsn, epoch },
    }
}

/// A complete protocol frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    Request {
        id: u64,
        meta: RequestMeta,
        command: Command,
    },
    Response { id: u64, reply: Reply },
    Push(PushEvent),
    /// Replication stream message.
    Repl(ReplMsg),
}

wire_enum! {
    Frame {
        0 => Request { id, meta, command },
        1 => Response { id, reply },
        2 => Push(push),
        3 => Repl(msg),
    }
}

impl Frame {
    /// Serialize including the length prefix: the body is encoded
    /// behind a reserved prefix, which is then patched, so a frame is
    /// one buffer.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(64);
        buf.extend_from_slice(&[0; 4]);
        self.put(&mut buf);
        let len = buf.len() - 4;
        debug_assert!(len <= MAX_FRAME);
        buf[..4].copy_from_slice(&(len as u32).to_be_bytes());
        buf
    }

    /// Deserialize a payload (length prefix already stripped). Fails
    /// with [`WireError::Protocol`] on a truncated or malformed body and
    /// on trailing garbage.
    pub fn decode(payload: &[u8]) -> Result<Frame, WireError> {
        codec::from_bytes(payload).map_err(protocol)
    }

    /// Write this frame to a stream.
    pub fn write_to(&self, w: &mut impl Write) -> Result<(), WireError> {
        w.write_all(&self.encode())?;
        Ok(())
    }

    /// Read one frame from a stream. `Ok(None)` on clean EOF at a
    /// frame boundary; EOF *inside* the length prefix or payload is an
    /// error (a `read_exact`-based reader would silently conflate the
    /// two and report a connection torn mid-prefix as a clean close).
    pub fn read_from(r: &mut impl Read) -> Result<Option<Frame>, WireError> {
        let mut len_buf = [0u8; 4];
        let mut filled = 0;
        while filled < 4 {
            match r.read(&mut len_buf[filled..]) {
                Ok(0) if filled == 0 => return Ok(None),
                Ok(0) => {
                    return Err(WireError::Protocol(format!(
                        "eof inside frame length prefix ({filled}/4 bytes)"
                    )))
                }
                Ok(n) => filled += n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e.into()),
            }
        }
        let len = u32::from_be_bytes(len_buf) as usize;
        if len > MAX_FRAME {
            return Err(WireError::Protocol(format!(
                "frame of {len} bytes exceeds cap {MAX_FRAME}"
            )));
        }
        let mut payload = vec![0u8; len];
        r.read_exact(&mut payload)?;
        Frame::decode(&payload).map(Some)
    }
}

/// A body that fails to decode is a protocol error.
fn protocol(e: HipacError) -> WireError {
    WireError::Protocol(match e {
        HipacError::Corruption(msg) => msg,
        e => e.to_string(),
    })
}

impl From<HipacError> for Reply {
    fn from(e: HipacError) -> Reply {
        Reply::Err {
            kind: variant_name(&e).to_owned(),
            message: e.to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(f: Frame) {
        let bytes = f.encode();
        let mut cursor = std::io::Cursor::new(&bytes);
        let back = Frame::read_from(&mut cursor).unwrap().unwrap();
        assert_eq!(f, back);
        assert_eq!(cursor.position() as usize, bytes.len());
    }

    #[test]
    fn all_commands_roundtrip() {
        let mut args = HashMap::new();
        args.insert("qty".to_owned(), Value::Int(7));
        args.insert("item".to_owned(), Value::Str("bolt".into()));
        let commands = vec![
            Command::Ping {
                version: PROTOCOL_VERSION,
            },
            Command::Begin,
            Command::BeginChild { parent: TxnId(4) },
            Command::Commit { txn: TxnId(4) },
            Command::Abort { txn: TxnId(9) },
            Command::CreateClass {
                txn: TxnId(1),
                name: "item".into(),
                superclass: Some("thing".into()),
                attrs: vec![
                    WireAttr {
                        name: "qty".into(),
                        ty: 2,
                        nullable: false,
                        indexed: true,
                    },
                    WireAttr {
                        name: "note".into(),
                        ty: 4,
                        nullable: true,
                        indexed: false,
                    },
                ],
            },
            Command::Insert {
                txn: TxnId(1),
                class: "item".into(),
                values: vec![Value::Int(3), Value::Null],
            },
            Command::Update {
                txn: TxnId(1),
                oid: 12,
                assignments: vec![("qty".into(), Value::Int(5))],
            },
            Command::Delete {
                txn: TxnId(1),
                oid: 12,
            },
            Command::Query {
                txn: TxnId(2),
                text: "from item where qty < 5".into(),
                params: args.clone(),
            },
            Command::DefineEvent {
                name: "reorder".into(),
                params: vec!["item".into(), "qty".into()],
            },
            Command::SignalEvent {
                name: "reorder".into(),
                args: args.clone(),
                txn: Some(TxnId(3)),
            },
            Command::SignalEvent {
                name: "reorder".into(),
                args: HashMap::new(),
                txn: None,
            },
            Command::CreateRule {
                txn: TxnId(1),
                rule: vec![1, 2, 3, 255],
            },
            Command::DropRule {
                txn: TxnId(1),
                name: "r".into(),
            },
            Command::EnableRule {
                txn: TxnId(1),
                name: "r".into(),
            },
            Command::DisableRule {
                txn: TxnId(1),
                name: "r".into(),
            },
            Command::Subscribe {
                handler: "reorderer".into(),
            },
            Command::Unsubscribe {
                handler: "reorderer".into(),
            },
            Command::AckPush {
                handler: "reorderer".into(),
                seq: 99,
            },
            Command::Auth {
                client_id: u64::MAX,
                token: vec![0xde, 0xad, 0xbe, 0xef],
            },
            Command::ReplSubscribe {
                start_lsn: 512,
                epoch: 3,
            },
            Command::ReplProgress {
                applied_lsn: 512,
                epoch: 3,
                digest: 0xdead_beef,
            },
            Command::Stats,
        ];
        for (i, command) in commands.into_iter().enumerate() {
            roundtrip(Frame::Request {
                id: i as u64 * 1000,
                meta: RequestMeta::default(),
                command,
            });
        }
    }

    #[test]
    fn request_meta_roundtrips() {
        roundtrip(Frame::Request {
            id: 7,
            meta: RequestMeta {
                client_id: u64::MAX,
                seq: 123_456,
                deadline_ms: 2_500,
            },
            command: Command::Begin,
        });
    }

    #[test]
    fn all_replies_roundtrip() {
        let replies = vec![
            Reply::Ok,
            Reply::Pong {
                version: PROTOCOL_VERSION,
            },
            Reply::Txn(TxnId(42)),
            Reply::Object(ObjectId(7)),
            Reply::Id(3),
            Reply::Rows(vec![
                WireRow {
                    oid: 1,
                    class: 2,
                    values: vec![Value::Int(1), Value::Str("x".into())],
                },
                WireRow {
                    oid: 9,
                    class: 2,
                    values: vec![],
                },
            ]),
            Reply::Stats(Box::new(WireStats {
                signals_processed: 1,
                rules_triggered: 2,
                conditions_satisfied: 3,
                actions_executed: 4,
                store_evaluations: 5,
                delta_evaluations: 6,
                cache_hits: 7,
                deferred_txns: 8,
                deferred_firings: 9,
                pool_outstanding: 10,
                separate_errors: 11,
                firings_parallel: 12,
                pool_queue_depth: 13,
                active_connections: 14,
                shed_requests: 15,
                dedup_hits: 16,
                separate_retries: 17,
                separate_dead_letters: 18,
                shed_adaptive: 19,
                journal_replays: 20,
                pushes_redelivered: 21,
                repl_role: 1,
                last_shipped_lsn: 22,
                last_applied_lsn: 23,
                repl_lag_bytes: 24,
                replica_pushes: 25,
                promotions: 26,
                match_index_nodes: 27,
                match_probes: 28,
                match_pruned: 29,
                memo_hits: 30,
                memo_invalidations: 31,
                group_commits: 32,
                group_commit_txns: 33,
                group_commit_largest: 34,
                reactor_shards: 35,
                auth_failures: 36,
                tenants_active: 37,
                tenant_shed_requests: 38,
                pushes_shed: 39,
                subscribers_evicted: 40,
                breaker_trips: 41,
                breaker_resets: 42,
                repl_epoch: 43,
                repl_fence_prev: 44,
                repl_fence_start: 45,
                repl_peers: 46,
                repl_min_peer_applied: 47,
                repl_digest_ok_peers: 48,
                repl_digest_mismatches: 49,
                repl_quorum: 50,
                repl_quorum_ok: 1,
            })),
            Reply::Err {
                kind: "UnknownClass".into(),
                message: "unknown class: zz".into(),
            },
        ];
        for (i, reply) in replies.into_iter().enumerate() {
            roundtrip(Frame::Response {
                id: i as u64,
                reply,
            });
        }
    }

    #[test]
    fn repl_msgs_roundtrip() {
        use hipac_storage::StoreOp;
        let msgs = vec![
            ReplMsg::Batch {
                prev_lsn: 8,
                start_lsn: 10,
                next_lsn: 99,
                txn: TxnId(7),
                ops: vec![
                    StoreOp::Put {
                        key: b"k".to_vec(),
                        value: b"v".to_vec(),
                    },
                    StoreOp::Delete { key: b"d".to_vec() },
                ],
                epoch: 2,
            },
            ReplMsg::SnapshotBegin { snapshot_lsn: 5 },
            ReplMsg::SnapshotChunk {
                pairs: vec![(b"a".to_vec(), b"1".to_vec()), (b"b".to_vec(), vec![])],
            },
            ReplMsg::SnapshotEnd {
                snapshot_lsn: 5,
                epoch: 2,
            },
            ReplMsg::Heartbeat {
                durable_lsn: 1234,
                epoch: 2,
            },
        ];
        for m in msgs {
            roundtrip(Frame::Repl(m));
        }
    }

    #[test]
    fn push_roundtrips() {
        let mut args = HashMap::new();
        args.insert("n".to_owned(), Value::Float(1.5));
        roundtrip(Frame::Push(PushEvent {
            seq: 41,
            handler: "h".into(),
            request: "restock".into(),
            args,
        }));
    }

    #[test]
    fn reply_bytes_roundtrip_and_reject_garbage() {
        for reply in [
            Reply::Ok,
            Reply::Txn(TxnId(9)),
            Reply::Err {
                kind: "UnknownTxn".into(),
                message: "gone".into(),
            },
        ] {
            assert_eq!(Reply::from_bytes(&reply.to_bytes()).unwrap(), reply);
        }
        let mut bytes = Reply::Ok.to_bytes();
        bytes.push(7);
        assert!(Reply::from_bytes(&bytes).is_err());
        assert!(Reply::from_bytes(&[200]).is_err());
    }

    #[test]
    fn oversized_frame_rejected_before_allocation() {
        let mut bytes = ((MAX_FRAME + 1) as u32).to_be_bytes().to_vec();
        bytes.push(0);
        let mut cursor = std::io::Cursor::new(&bytes);
        assert!(matches!(
            Frame::read_from(&mut cursor),
            Err(WireError::Protocol(_))
        ));
    }

    #[test]
    fn truncated_frames_error_not_panic() {
        let full = Frame::Request {
            id: 5,
            meta: RequestMeta::default(),
            command: Command::Query {
                txn: TxnId(1),
                text: "from c".into(),
                params: HashMap::new(),
            },
        }
        .encode();
        // Cut inside the payload (keeping a consistent length prefix
        // would mean EOF; corrupt payload bytes instead).
        for cut in 5..full.len() {
            assert!(Frame::decode(&full[4..cut]).is_err());
        }
        // Every Stats field is required: a body cut short anywhere is a
        // protocol error, not a reply with trailing zeros.
        let stats = Frame::Response {
            id: 3,
            reply: Reply::Stats(Box::default()),
        }
        .encode();
        for cut in 5..stats.len() {
            assert!(matches!(
                Frame::decode(&stats[4..cut]),
                Err(WireError::Protocol(_))
            ));
        }
        // Clean EOF at a frame boundary is None, not an error.
        let mut empty = std::io::Cursor::new(&[][..]);
        assert!(matches!(Frame::read_from(&mut empty), Ok(None)));
    }

    #[test]
    fn trailing_garbage_rejected() {
        let mut payload = Frame::Response {
            id: 1,
            reply: Reply::Ok,
        }
        .encode()[4..]
            .to_vec();
        payload.push(99);
        assert!(Frame::decode(&payload).is_err());
    }

    #[test]
    fn txn_fatal_classification_crosses_the_wire() {
        let e: WireError = HipacError::Deadlock(TxnId(1)).into();
        assert!(e.is_txn_fatal());
        let e: WireError = HipacError::DeadlineExceeded(TxnId(1)).into();
        assert!(e.is_txn_fatal());
        let e: WireError = HipacError::UnknownClass("c".into()).into();
        assert!(!e.is_txn_fatal());
    }

    #[test]
    fn indefinite_outcome_classification() {
        assert!(WireError::Transport("reset".into()).is_indefinite());
        assert!(WireError::Timeout("2s elapsed".into()).is_indefinite());
        assert!(!WireError::Io("refused".into()).is_indefinite());
        let remote = WireError::Remote {
            kind: "Overloaded".into(),
            message: "shed".into(),
        };
        // A definite server refusal: the command was NOT applied.
        assert!(!remote.is_indefinite());
    }
}
