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

use hipac_common::codec::{
    get_bytes, get_kv_map, get_str, get_uvarint, get_value, put_bytes, put_kv_map, put_str,
    put_uvarint, put_value,
};
use hipac_common::{HipacError, ObjectId, TxnId, Value};
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

// Frame kinds.
const KIND_REQUEST: u8 = 0;
const KIND_RESPONSE: u8 = 1;
const KIND_PUSH: u8 = 2;
const KIND_REPL: u8 = 3;

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
    /// `ValueType` discriminant, see [`type_code`].
    pub ty: u8,
    pub nullable: bool,
    pub indexed: bool,
}

/// Encode a `ValueType` as a stable wire byte.
pub fn type_code(ty: hipac_common::ValueType) -> u8 {
    use hipac_common::ValueType::*;
    match ty {
        Null => 0,
        Bool => 1,
        Int => 2,
        Float => 3,
        Str => 4,
        Bytes => 5,
        Ref => 6,
        Timestamp => 7,
        List => 8,
    }
}

/// Inverse of [`type_code`].
pub fn code_type(code: u8) -> Result<hipac_common::ValueType, WireError> {
    use hipac_common::ValueType::*;
    Ok(match code {
        0 => Null,
        1 => Bool,
        2 => Int,
        3 => Float,
        4 => Str,
        5 => Bytes,
        6 => Ref,
        7 => Timestamp,
        8 => List,
        other => return Err(WireError::Protocol(format!("bad type code {other}"))),
    })
}

/// A query result row on the wire.
#[derive(Debug, Clone, PartialEq)]
pub struct WireRow {
    pub oid: u64,
    pub class: u64,
    pub values: Vec<Value>,
}

/// Declares [`WireStats`] from one field list: the struct's fields, and
/// the Stats body encoder and decoder, which write and read every field
/// as a uvarint in exactly this order.
macro_rules! wire_stats {
    ($($field:ident,)*) => {
        /// Engine statistics snapshot carried by the `Stats` reply.
        /// Mirrors `hipac::EngineStats`; kept as a separate wire struct
        /// so the protocol stays source-stable if the facade grows
        /// fields.
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct WireStats {
            $(pub $field: u64,)*
        }

        impl WireStats {
            fn encode(&self, buf: &mut Vec<u8>) {
                $(put_uvarint(buf, self.$field);)*
            }

            /// Every field is required: a short body is a truncated
            /// frame. (Struct fields evaluate in source order, so this
            /// reads them in the encoder's order.)
            fn decode(buf: &[u8], pos: &mut usize) -> Result<WireStats, WireError> {
                Ok(WireStats {
                    $($field: get_uvarint(buf, pos)?,)*
                })
            }
        }
    };
}

wire_stats! {
    // ---- rule processing and firing pool ----
    signals_processed,
    rules_triggered,
    conditions_satisfied,
    actions_executed,
    store_evaluations,
    delta_evaluations,
    cache_hits,
    deferred_txns,
    deferred_firings,
    pool_outstanding,
    separate_errors,
    firings_parallel,
    pool_queue_depth,
    // ---- resilience ----
    active_connections,
    shed_requests,
    dedup_hits,
    separate_retries,
    separate_dead_letters,
    // ---- durable exactly-once ----
    shed_adaptive,
    journal_replays,
    pushes_redelivered,
    // ---- replication ----
    repl_role,
    last_shipped_lsn,
    last_applied_lsn,
    repl_lag_bytes,
    replica_pushes,
    promotions,
    // ---- rule matching ----
    match_index_nodes,
    match_probes,
    match_pruned,
    memo_hits,
    memo_invalidations,
    // ---- group commit and reactor ----
    group_commits,
    group_commit_txns,
    group_commit_largest,
    reactor_shards,
    // ---- tenancy and breakers. The server encodes breaker_trips /
    // breaker_resets as zero; the client overlays its process-wide
    // circuit-breaker registry in `HipacClient::stats`. ----
    auth_failures,
    tenants_active,
    tenant_shed_requests,
    pushes_shed,
    subscribers_evicted,
    breaker_trips,
    breaker_resets,
    // ---- epoch fencing, quorum and anti-entropy ----
    repl_epoch,
    repl_fence_prev,
    repl_fence_start,
    repl_peers,
    repl_min_peer_applied,
    repl_digest_ok_peers,
    repl_digest_mismatches,
    repl_quorum,
    repl_quorum_ok,
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
    /// by the client after the push handler returns (frame id 0 —
    /// fire-and-forget, the `Ok` reply is discarded).
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
    /// semi-sync commit gate and its lag gauges (frame id 0 —
    /// fire-and-forget).
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

// Command opcodes. Stable on the wire: never renumber, only append.
const OP_PING: u8 = 0;
const OP_BEGIN: u8 = 1;
const OP_BEGIN_CHILD: u8 = 2;
const OP_COMMIT: u8 = 3;
const OP_ABORT: u8 = 4;
const OP_CREATE_CLASS: u8 = 5;
const OP_INSERT: u8 = 6;
const OP_UPDATE: u8 = 7;
const OP_DELETE: u8 = 8;
const OP_QUERY: u8 = 9;
const OP_DEFINE_EVENT: u8 = 10;
const OP_SIGNAL_EVENT: u8 = 11;
const OP_CREATE_RULE: u8 = 12;
const OP_DROP_RULE: u8 = 13;
const OP_ENABLE_RULE: u8 = 14;
const OP_DISABLE_RULE: u8 = 15;
const OP_SUBSCRIBE: u8 = 16;
const OP_UNSUBSCRIBE: u8 = 17;
const OP_STATS: u8 = 18;
const OP_ACK_PUSH: u8 = 19;
const OP_REPL_SUBSCRIBE: u8 = 20;
const OP_REPL_PROGRESS: u8 = 21;
const OP_AUTH: u8 = 22;

impl Command {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            Command::Ping { version } => {
                buf.push(OP_PING);
                put_uvarint(buf, u64::from(*version));
            }
            Command::Begin => buf.push(OP_BEGIN),
            Command::BeginChild { parent } => {
                buf.push(OP_BEGIN_CHILD);
                put_uvarint(buf, parent.0);
            }
            Command::Commit { txn } => {
                buf.push(OP_COMMIT);
                put_uvarint(buf, txn.0);
            }
            Command::Abort { txn } => {
                buf.push(OP_ABORT);
                put_uvarint(buf, txn.0);
            }
            Command::CreateClass {
                txn,
                name,
                superclass,
                attrs,
            } => {
                buf.push(OP_CREATE_CLASS);
                put_uvarint(buf, txn.0);
                put_str(buf, name);
                match superclass {
                    None => buf.push(0),
                    Some(s) => {
                        buf.push(1);
                        put_str(buf, s);
                    }
                }
                put_uvarint(buf, attrs.len() as u64);
                for a in attrs {
                    put_str(buf, &a.name);
                    buf.push(a.ty);
                    buf.push(u8::from(a.nullable) | (u8::from(a.indexed) << 1));
                }
            }
            Command::Insert { txn, class, values } => {
                buf.push(OP_INSERT);
                put_uvarint(buf, txn.0);
                put_str(buf, class);
                put_uvarint(buf, values.len() as u64);
                for v in values {
                    put_value(buf, v);
                }
            }
            Command::Update {
                txn,
                oid,
                assignments,
            } => {
                buf.push(OP_UPDATE);
                put_uvarint(buf, txn.0);
                put_uvarint(buf, *oid);
                put_uvarint(buf, assignments.len() as u64);
                for (name, v) in assignments {
                    put_str(buf, name);
                    put_value(buf, v);
                }
            }
            Command::Delete { txn, oid } => {
                buf.push(OP_DELETE);
                put_uvarint(buf, txn.0);
                put_uvarint(buf, *oid);
            }
            Command::Query { txn, text, params } => {
                buf.push(OP_QUERY);
                put_uvarint(buf, txn.0);
                put_str(buf, text);
                put_kv_map(buf, params);
            }
            Command::DefineEvent { name, params } => {
                buf.push(OP_DEFINE_EVENT);
                put_str(buf, name);
                put_uvarint(buf, params.len() as u64);
                for p in params {
                    put_str(buf, p);
                }
            }
            Command::SignalEvent { name, args, txn } => {
                buf.push(OP_SIGNAL_EVENT);
                put_str(buf, name);
                put_kv_map(buf, args);
                match txn {
                    None => buf.push(0),
                    Some(t) => {
                        buf.push(1);
                        put_uvarint(buf, t.0);
                    }
                }
            }
            Command::CreateRule { txn, rule } => {
                buf.push(OP_CREATE_RULE);
                put_uvarint(buf, txn.0);
                put_bytes(buf, rule);
            }
            Command::DropRule { txn, name } => {
                buf.push(OP_DROP_RULE);
                put_uvarint(buf, txn.0);
                put_str(buf, name);
            }
            Command::EnableRule { txn, name } => {
                buf.push(OP_ENABLE_RULE);
                put_uvarint(buf, txn.0);
                put_str(buf, name);
            }
            Command::DisableRule { txn, name } => {
                buf.push(OP_DISABLE_RULE);
                put_uvarint(buf, txn.0);
                put_str(buf, name);
            }
            Command::Subscribe { handler } => {
                buf.push(OP_SUBSCRIBE);
                put_str(buf, handler);
            }
            Command::Unsubscribe { handler } => {
                buf.push(OP_UNSUBSCRIBE);
                put_str(buf, handler);
            }
            Command::AckPush { handler, seq } => {
                buf.push(OP_ACK_PUSH);
                put_str(buf, handler);
                put_uvarint(buf, *seq);
            }
            Command::Stats => buf.push(OP_STATS),
            Command::ReplSubscribe { start_lsn, epoch } => {
                buf.push(OP_REPL_SUBSCRIBE);
                put_uvarint(buf, *start_lsn);
                put_uvarint(buf, *epoch);
            }
            Command::ReplProgress {
                applied_lsn,
                epoch,
                digest,
            } => {
                buf.push(OP_REPL_PROGRESS);
                put_uvarint(buf, *applied_lsn);
                put_uvarint(buf, *epoch);
                put_uvarint(buf, *digest);
            }
            Command::Auth { client_id, token } => {
                buf.push(OP_AUTH);
                put_uvarint(buf, *client_id);
                put_bytes(buf, token);
            }
        }
    }

    fn decode(buf: &[u8], pos: &mut usize) -> Result<Command, WireError> {
        let op = *buf
            .get(*pos)
            .ok_or_else(|| WireError::Protocol("truncated opcode".into()))?;
        *pos += 1;
        Ok(match op {
            OP_PING => Command::Ping {
                version: get_uvarint(buf, pos)? as u32,
            },
            OP_BEGIN => Command::Begin,
            OP_BEGIN_CHILD => Command::BeginChild {
                parent: TxnId(get_uvarint(buf, pos)?),
            },
            OP_COMMIT => Command::Commit {
                txn: TxnId(get_uvarint(buf, pos)?),
            },
            OP_ABORT => Command::Abort {
                txn: TxnId(get_uvarint(buf, pos)?),
            },
            OP_CREATE_CLASS => {
                let txn = TxnId(get_uvarint(buf, pos)?);
                let name = get_str(buf, pos)?;
                let superclass = match next_byte(buf, pos)? {
                    0 => None,
                    1 => Some(get_str(buf, pos)?),
                    other => {
                        return Err(WireError::Protocol(format!("bad option tag {other}")))
                    }
                };
                let n = get_uvarint(buf, pos)? as usize;
                bounded(n, buf, *pos)?;
                let mut attrs = Vec::with_capacity(n);
                for _ in 0..n {
                    let name = get_str(buf, pos)?;
                    let ty = next_byte(buf, pos)?;
                    let flags = next_byte(buf, pos)?;
                    attrs.push(WireAttr {
                        name,
                        ty,
                        nullable: flags & 1 != 0,
                        indexed: flags & 2 != 0,
                    });
                }
                Command::CreateClass {
                    txn,
                    name,
                    superclass,
                    attrs,
                }
            }
            OP_INSERT => {
                let txn = TxnId(get_uvarint(buf, pos)?);
                let class = get_str(buf, pos)?;
                let n = get_uvarint(buf, pos)? as usize;
                bounded(n, buf, *pos)?;
                let mut values = Vec::with_capacity(n);
                for _ in 0..n {
                    values.push(get_value(buf, pos)?);
                }
                Command::Insert { txn, class, values }
            }
            OP_UPDATE => {
                let txn = TxnId(get_uvarint(buf, pos)?);
                let oid = get_uvarint(buf, pos)?;
                let n = get_uvarint(buf, pos)? as usize;
                bounded(n, buf, *pos)?;
                let mut assignments = Vec::with_capacity(n);
                for _ in 0..n {
                    let name = get_str(buf, pos)?;
                    let v = get_value(buf, pos)?;
                    assignments.push((name, v));
                }
                Command::Update {
                    txn,
                    oid,
                    assignments,
                }
            }
            OP_DELETE => Command::Delete {
                txn: TxnId(get_uvarint(buf, pos)?),
                oid: get_uvarint(buf, pos)?,
            },
            OP_QUERY => Command::Query {
                txn: TxnId(get_uvarint(buf, pos)?),
                text: get_str(buf, pos)?,
                params: get_kv_map(buf, pos)?,
            },
            OP_DEFINE_EVENT => {
                let name = get_str(buf, pos)?;
                let n = get_uvarint(buf, pos)? as usize;
                bounded(n, buf, *pos)?;
                let mut params = Vec::with_capacity(n);
                for _ in 0..n {
                    params.push(get_str(buf, pos)?);
                }
                Command::DefineEvent { name, params }
            }
            OP_SIGNAL_EVENT => {
                let name = get_str(buf, pos)?;
                let args = get_kv_map(buf, pos)?;
                let txn = match next_byte(buf, pos)? {
                    0 => None,
                    1 => Some(TxnId(get_uvarint(buf, pos)?)),
                    other => {
                        return Err(WireError::Protocol(format!("bad option tag {other}")))
                    }
                };
                Command::SignalEvent { name, args, txn }
            }
            OP_CREATE_RULE => Command::CreateRule {
                txn: TxnId(get_uvarint(buf, pos)?),
                rule: get_bytes(buf, pos)?.to_vec(),
            },
            OP_DROP_RULE => Command::DropRule {
                txn: TxnId(get_uvarint(buf, pos)?),
                name: get_str(buf, pos)?,
            },
            OP_ENABLE_RULE => Command::EnableRule {
                txn: TxnId(get_uvarint(buf, pos)?),
                name: get_str(buf, pos)?,
            },
            OP_DISABLE_RULE => Command::DisableRule {
                txn: TxnId(get_uvarint(buf, pos)?),
                name: get_str(buf, pos)?,
            },
            OP_SUBSCRIBE => Command::Subscribe {
                handler: get_str(buf, pos)?,
            },
            OP_UNSUBSCRIBE => Command::Unsubscribe {
                handler: get_str(buf, pos)?,
            },
            OP_ACK_PUSH => Command::AckPush {
                handler: get_str(buf, pos)?,
                seq: get_uvarint(buf, pos)?,
            },
            OP_STATS => Command::Stats,
            OP_REPL_SUBSCRIBE => Command::ReplSubscribe {
                start_lsn: get_uvarint(buf, pos)?,
                epoch: get_uvarint(buf, pos)?,
            },
            OP_REPL_PROGRESS => Command::ReplProgress {
                applied_lsn: get_uvarint(buf, pos)?,
                epoch: get_uvarint(buf, pos)?,
                digest: get_uvarint(buf, pos)?,
            },
            OP_AUTH => Command::Auth {
                client_id: get_uvarint(buf, pos)?,
                token: get_bytes(buf, pos)?.to_vec(),
            },
            other => return Err(WireError::Protocol(format!("unknown opcode {other}"))),
        })
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

const ST_OK: u8 = 0;
const ST_PONG: u8 = 1;
const ST_TXN: u8 = 2;
const ST_OBJECT: u8 = 3;
const ST_ID: u8 = 4;
const ST_ROWS: u8 = 5;
const ST_STATS: u8 = 6;
const ST_ERR: u8 = 7;

impl Reply {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            Reply::Ok => buf.push(ST_OK),
            Reply::Pong { version } => {
                buf.push(ST_PONG);
                put_uvarint(buf, u64::from(*version));
            }
            Reply::Txn(t) => {
                buf.push(ST_TXN);
                put_uvarint(buf, t.0);
            }
            Reply::Object(o) => {
                buf.push(ST_OBJECT);
                put_uvarint(buf, o.raw());
            }
            Reply::Id(id) => {
                buf.push(ST_ID);
                put_uvarint(buf, *id);
            }
            Reply::Rows(rows) => {
                buf.push(ST_ROWS);
                put_uvarint(buf, rows.len() as u64);
                for row in rows {
                    put_uvarint(buf, row.oid);
                    put_uvarint(buf, row.class);
                    put_uvarint(buf, row.values.len() as u64);
                    for v in &row.values {
                        put_value(buf, v);
                    }
                }
            }
            Reply::Stats(s) => {
                buf.push(ST_STATS);
                s.encode(buf);
            }
            Reply::Err { kind, message } => {
                buf.push(ST_ERR);
                put_str(buf, kind);
                put_str(buf, message);
            }
        }
    }

    fn decode(buf: &[u8], pos: &mut usize) -> Result<Reply, WireError> {
        Ok(match next_byte(buf, pos)? {
            ST_OK => Reply::Ok,
            ST_PONG => Reply::Pong {
                version: get_uvarint(buf, pos)? as u32,
            },
            ST_TXN => Reply::Txn(TxnId(get_uvarint(buf, pos)?)),
            ST_OBJECT => Reply::Object(ObjectId(get_uvarint(buf, pos)?)),
            ST_ID => Reply::Id(get_uvarint(buf, pos)?),
            ST_ROWS => {
                let n = get_uvarint(buf, pos)? as usize;
                bounded(n, buf, *pos)?;
                let mut rows = Vec::with_capacity(n);
                for _ in 0..n {
                    let oid = get_uvarint(buf, pos)?;
                    let class = get_uvarint(buf, pos)?;
                    let m = get_uvarint(buf, pos)? as usize;
                    bounded(m, buf, *pos)?;
                    let mut values = Vec::with_capacity(m);
                    for _ in 0..m {
                        values.push(get_value(buf, pos)?);
                    }
                    rows.push(WireRow { oid, class, values });
                }
                Reply::Rows(rows)
            }
            ST_STATS => Reply::Stats(Box::new(WireStats::decode(buf, pos)?)),
            ST_ERR => Reply::Err {
                kind: get_str(buf, pos)?,
                message: get_str(buf, pos)?,
            },
            other => return Err(WireError::Protocol(format!("unknown status {other}"))),
        })
    }

    /// Serialize standalone (no frame envelope). Used by the server's
    /// reply journal, which persists cached replies by value.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(16);
        self.encode(&mut buf);
        buf
    }

    /// Inverse of [`Reply::to_bytes`]; rejects trailing garbage.
    pub fn from_bytes(buf: &[u8]) -> Result<Reply, WireError> {
        let mut pos = 0;
        let reply = Reply::decode(buf, &mut pos)?;
        if pos != buf.len() {
            return Err(WireError::Protocol(format!(
                "trailing {} bytes after reply",
                buf.len() - pos
            )));
        }
        Ok(reply)
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

const RM_BATCH: u8 = 0;
const RM_SNAP_BEGIN: u8 = 1;
const RM_SNAP_CHUNK: u8 = 2;
const RM_SNAP_END: u8 = 3;
const RM_HEARTBEAT: u8 = 4;

impl ReplMsg {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            ReplMsg::Batch {
                prev_lsn,
                start_lsn,
                next_lsn,
                txn,
                ops,
                epoch,
            } => {
                buf.push(RM_BATCH);
                put_uvarint(buf, *prev_lsn);
                put_uvarint(buf, *start_lsn);
                put_uvarint(buf, *next_lsn);
                put_uvarint(buf, txn.0);
                put_uvarint(buf, ops.len() as u64);
                for op in ops {
                    match op {
                        hipac_storage::StoreOp::Put { key, value } => {
                            buf.push(0);
                            put_bytes(buf, key);
                            put_bytes(buf, value);
                        }
                        hipac_storage::StoreOp::Delete { key } => {
                            buf.push(1);
                            put_bytes(buf, key);
                        }
                    }
                }
                put_uvarint(buf, *epoch);
            }
            ReplMsg::SnapshotBegin { snapshot_lsn } => {
                buf.push(RM_SNAP_BEGIN);
                put_uvarint(buf, *snapshot_lsn);
            }
            ReplMsg::SnapshotChunk { pairs } => {
                buf.push(RM_SNAP_CHUNK);
                put_uvarint(buf, pairs.len() as u64);
                for (k, v) in pairs {
                    put_bytes(buf, k);
                    put_bytes(buf, v);
                }
            }
            ReplMsg::SnapshotEnd { snapshot_lsn, epoch } => {
                buf.push(RM_SNAP_END);
                put_uvarint(buf, *snapshot_lsn);
                put_uvarint(buf, *epoch);
            }
            ReplMsg::Heartbeat { durable_lsn, epoch } => {
                buf.push(RM_HEARTBEAT);
                put_uvarint(buf, *durable_lsn);
                put_uvarint(buf, *epoch);
            }
        }
    }

    fn decode(buf: &[u8], pos: &mut usize) -> Result<ReplMsg, WireError> {
        Ok(match next_byte(buf, pos)? {
            RM_BATCH => {
                let prev_lsn = get_uvarint(buf, pos)?;
                let start_lsn = get_uvarint(buf, pos)?;
                let next_lsn = get_uvarint(buf, pos)?;
                let txn = TxnId(get_uvarint(buf, pos)?);
                let n = get_uvarint(buf, pos)? as usize;
                bounded(n, buf, *pos)?;
                let mut ops = Vec::with_capacity(n);
                for _ in 0..n {
                    ops.push(match next_byte(buf, pos)? {
                        0 => hipac_storage::StoreOp::Put {
                            key: get_bytes(buf, pos)?.to_vec(),
                            value: get_bytes(buf, pos)?.to_vec(),
                        },
                        1 => hipac_storage::StoreOp::Delete {
                            key: get_bytes(buf, pos)?.to_vec(),
                        },
                        other => {
                            return Err(WireError::Protocol(format!("bad op tag {other}")))
                        }
                    });
                }
                let epoch = get_uvarint(buf, pos)?;
                ReplMsg::Batch {
                    prev_lsn,
                    start_lsn,
                    next_lsn,
                    txn,
                    ops,
                    epoch,
                }
            }
            RM_SNAP_BEGIN => ReplMsg::SnapshotBegin {
                snapshot_lsn: get_uvarint(buf, pos)?,
            },
            RM_SNAP_CHUNK => {
                let n = get_uvarint(buf, pos)? as usize;
                bounded(n, buf, *pos)?;
                let mut pairs = Vec::with_capacity(n);
                for _ in 0..n {
                    let k = get_bytes(buf, pos)?.to_vec();
                    let v = get_bytes(buf, pos)?.to_vec();
                    pairs.push((k, v));
                }
                ReplMsg::SnapshotChunk { pairs }
            }
            RM_SNAP_END => ReplMsg::SnapshotEnd {
                snapshot_lsn: get_uvarint(buf, pos)?,
                epoch: get_uvarint(buf, pos)?,
            },
            RM_HEARTBEAT => ReplMsg::Heartbeat {
                durable_lsn: get_uvarint(buf, pos)?,
                epoch: get_uvarint(buf, pos)?,
            },
            other => return Err(WireError::Protocol(format!("unknown repl msg {other}"))),
        })
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

impl Frame {
    /// Serialize including the length prefix.
    pub fn encode(&self) -> Vec<u8> {
        let mut payload = Vec::with_capacity(64);
        match self {
            Frame::Request { id, meta, command } => {
                payload.push(KIND_REQUEST);
                put_uvarint(&mut payload, *id);
                put_uvarint(&mut payload, meta.client_id);
                put_uvarint(&mut payload, meta.seq);
                put_uvarint(&mut payload, meta.deadline_ms);
                command.encode(&mut payload);
            }
            Frame::Response { id, reply } => {
                payload.push(KIND_RESPONSE);
                put_uvarint(&mut payload, *id);
                reply.encode(&mut payload);
            }
            Frame::Push(p) => {
                payload.push(KIND_PUSH);
                put_uvarint(&mut payload, p.seq);
                put_str(&mut payload, &p.handler);
                put_str(&mut payload, &p.request);
                put_kv_map(&mut payload, &p.args);
            }
            Frame::Repl(m) => {
                payload.push(KIND_REPL);
                m.encode(&mut payload);
            }
        }
        debug_assert!(payload.len() <= MAX_FRAME);
        let mut out = Vec::with_capacity(payload.len() + 4);
        out.extend_from_slice(&(payload.len() as u32).to_be_bytes());
        out.extend_from_slice(&payload);
        out
    }

    /// Deserialize a payload (length prefix already stripped). Fails
    /// with [`WireError::Protocol`] on a truncated or malformed body and
    /// on trailing garbage.
    pub fn decode(payload: &[u8]) -> Result<Frame, WireError> {
        Self::decode_body(payload).map_err(|e| match e {
            // The body codec reports in `HipacError` terms; on a frame
            // every such failure is a protocol error.
            WireError::Remote { message, .. } => WireError::Protocol(message),
            e => e,
        })
    }

    fn decode_body(payload: &[u8]) -> Result<Frame, WireError> {
        let mut pos = 0;
        let frame = match next_byte(payload, &mut pos)? {
            KIND_REQUEST => {
                let id = get_uvarint(payload, &mut pos)?;
                let meta = RequestMeta {
                    client_id: get_uvarint(payload, &mut pos)?,
                    seq: get_uvarint(payload, &mut pos)?,
                    deadline_ms: get_uvarint(payload, &mut pos)?,
                };
                let command = Command::decode(payload, &mut pos)?;
                Frame::Request { id, meta, command }
            }
            KIND_RESPONSE => {
                let id = get_uvarint(payload, &mut pos)?;
                let reply = Reply::decode(payload, &mut pos)?;
                Frame::Response { id, reply }
            }
            KIND_PUSH => Frame::Push(PushEvent {
                seq: get_uvarint(payload, &mut pos)?,
                handler: get_str(payload, &mut pos)?,
                request: get_str(payload, &mut pos)?,
                args: get_kv_map(payload, &mut pos)?,
            }),
            KIND_REPL => Frame::Repl(ReplMsg::decode(payload, &mut pos)?),
            other => return Err(WireError::Protocol(format!("unknown frame kind {other}"))),
        };
        if pos != payload.len() {
            return Err(WireError::Protocol(format!(
                "trailing {} bytes after frame",
                payload.len() - pos
            )));
        }
        Ok(frame)
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

fn next_byte(buf: &[u8], pos: &mut usize) -> Result<u8, WireError> {
    let b = *buf
        .get(*pos)
        .ok_or_else(|| WireError::Protocol("truncated frame".into()))?;
    *pos += 1;
    Ok(b)
}

/// Reject hostile element counts before allocating: each element needs
/// at least one byte of remaining input.
fn bounded(n: usize, buf: &[u8], pos: usize) -> Result<(), WireError> {
    if n > buf.len().saturating_sub(pos) {
        return Err(WireError::Protocol("count exceeds input".into()));
    }
    Ok(())
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
