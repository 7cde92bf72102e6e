//! hipac-net: the network service layer of the HiPAC active DBMS.
//!
//! HiPAC's architecture (Figure 4.1 of the paper) exposes four groups
//! of operations to applications — transaction control, data
//! operations, event operations, and application requests flowing
//! *back* from the DBMS to the application (the §4.1 "role reversal").
//! This crate puts that surface on a socket:
//!
//! * [`proto`] — a length-prefixed binary wire protocol encoding
//!   requests, responses, and server-push frames, built on the
//!   self-describing value codec from `hipac-common`.
//! * [`reader`] — [`reader::FrameReader`]: the one incremental frame
//!   reader (a burst per `read`, frames decoded in place) behind every
//!   socket read in the workspace.
//! * [`server`] — [`server::HipacServer`]: a TCP server wrapping an
//!   `ActiveDatabase`. A bounded worker pool waits on a few epoll sets,
//!   and the worker that receives a connection's readiness reads, runs
//!   and answers its requests; sessions keep per-session transaction
//!   tables, and rule-action application requests are delivered as
//!   push frames to subscribed clients.
//! * [`reactor`] — the epoll facade the workers wait on.
//! * [`client`] — [`client::HipacClient`]: a blocking request/response
//!   client whose callers read their own replies, with push-frame
//!   handler registration.
//!
//! The protocol carries end-to-end failure resilience: every request
//! carries an idempotency key (stable client id + monotonic sequence)
//! and an optional deadline. The server deduplicates retries through a
//! bounded reply window, propagates deadlines into engine lock waits,
//! sheds work past an admission budget with a typed `Overloaded`
//! error, and drains gracefully; the client reconnects with backoff,
//! re-subscribes its handlers, and retries transport failures
//! exactly-once.
//!
//! That contract survives a server crash: on a
//! durable store, cached replies ride the WAL batch of the commit they
//! acknowledge (the reply journal, reloaded on recovery, with evicted
//! keys refused via a typed `ReplyEvicted`), and push frames carry a
//! per-subscription sequence number backed by a durable outbox — the
//! client acks each push after its handler runs ([`Command::AckPush`]),
//! unacked frames are redelivered on resubscribe, and the client
//! dedups redeliveries by sequence. The server also sheds adaptively on
//! a dispatch-delay EWMA and a client-side per-address circuit
//! breaker. See DESIGN.md §7 and the `hipac-check::restart` torture
//! for the proof obligations.
//!
//! The server is hardened for multiple tenants: sessions
//! authenticate with an HMAC token over a shared server secret
//! ([`auth`], [`Command::Auth`]) binding the connection to its
//! `client_id`, so journal replays, push redelivery, and acks are only
//! honored for the proven identity; admission control is hung off the
//! tenant (a per-tenant in-flight cap, and a dispatch-delay signal
//! that sheds only tenants already holding work in flight); and a slow
//! subscriber whose durable outbox exceeds a byte budget is
//! dead-lettered with a typed
//! `SubscriberEvicted` engine event that user rules can fire on. See
//! DESIGN.md §9.

pub mod auth;
pub mod client;
pub mod proto;
pub mod reactor;
pub mod reader;
pub mod server;

pub use client::{ClientConfig, FleetClient, FleetMember, HipacClient};
pub use proto::{Command, Frame, PushEvent, Reply, ReplMsg, RequestMeta, WireError};
pub use reader::FrameReader;
pub use server::{HipacServer, ServerConfig};
