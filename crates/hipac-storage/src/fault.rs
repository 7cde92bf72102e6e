//! Deterministic fault injection for the storage I/O path.
//!
//! Every mutating step on the durability path — WAL appends, fills and
//! syncs, image writes and syncs, directory syncs, batch applies, the
//! checkpoint rename — calls into a shared [`FaultPolicy`] before
//! touching the file system. The default policy ([`FaultPolicy::none`])
//! is a no-op; test harnesses substitute:
//!
//! * [`FaultPolicy::count_only`] — count and log every fault point a
//!   workload crosses, which is how the crash-matrix suite *enumerates*
//!   its crash schedule;
//! * [`FaultPolicy::crash_at`] — simulate a process crash at the `n`-th
//!   fault point. WAL appends and fills may additionally be *torn*: a
//!   seed-derived prefix of the frame bytes (or of the fill's zeros)
//!   reaches the file before the "crash", exercising the torn-tail
//!   truncation path in [`crate::wal::Wal::open`].
//!
//! A test policy can also *hold* a point ([`FaultPolicy::hold_next`]):
//! the next thread to cross it parks there until released, which lets
//! a test order other threads against a precise place on the commit
//! path (the group crash matrix gathers a whole cohort behind a held
//! commit this way).
//!
//! A fired crash is sticky: every subsequent fault-point hit on the
//! same policy also errors, so a "dead" store cannot keep mutating
//! disk state — exactly like a killed process. Recovery is then tested
//! by reopening the store with a fresh (no-op) policy. A crashed
//! policy also stops [`crate::wal::Wal`]'s drop from trimming its fill,
//! so the reopen sees the zero-tailed log a real crash leaves.
//!
//! Image writes are never torn (crash-before only): an image is written
//! whole into `data.db.tmp` and means nothing until the checkpoint
//! renames it over `data.db`, so any prefix of it is as good as none.

use hipac_common::{HipacError, Result};
use parking_lot::Mutex;
use std::sync::{Arc, Condvar, Mutex as StdMutex};

/// A named point on the storage I/O path where a fault can fire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultPoint {
    /// `Wal::append_all`, before the frame bytes are written. Can
    /// produce a *torn* (partial) write.
    WalAppend,
    /// `Wal::append_all`, when the frames do not fit in the zero-filled
    /// region: crossed before the fill's zeros are written (a *torn*
    /// write, like [`FaultPoint::WalAppend`]) and again before its sync.
    WalFill,
    /// `Wal::sync`, before `fsync`.
    WalSync,
    /// `Wal::reset`, before the log is truncated.
    WalReset,
    /// Checkpoint, before each buffer of the new image is written to
    /// `data.db.tmp`.
    ImageWrite,
    /// Checkpoint, before `fsync` of the new image.
    ImageSync,
    /// Before an `fsync` of the store's parent directory (file
    /// creation and checkpoint rename durability).
    DirSync,
    /// `DurableStore::commit`, before each logged operation is staged
    /// in the memtable.
    StoreApply,
    /// Group commit only: after the cohort's single fsync, before any
    /// waiter is woken. A crash here is the "durable but unacked" window
    /// for the *whole cohort* — recovery must replay every member.
    GroupWake,
    /// Checkpoint, before the new image is renamed over the data
    /// file.
    CheckpointRename,
}

enum Plan {
    /// Count and log hits; never fail.
    CountOnly,
    /// Simulate a crash at the given 0-based global hit index.
    CrashAt(u64),
}

struct State {
    hits: u64,
    crashed: bool,
    log: Vec<FaultPoint>,
    rng: u64,
}

/// A [`FaultPolicy::hold_next`] gate.
#[derive(Default)]
struct Hold {
    /// The point whose next crossing parks its thread.
    armed: Option<FaultPoint>,
    /// A thread is parked at the armed point.
    parked: bool,
}

/// A shared, thread-safe fault-injection policy. Thread one through
/// [`crate::DurableStore::open_with_faults`] (which forwards it to its
/// image writes and its `Wal`) to make every durability step observable
/// and crashable.
pub struct FaultPolicy {
    plan: Plan,
    enabled: bool,
    state: Mutex<State>,
    hold: StdMutex<Hold>,
    released: Condvar,
}

impl FaultPolicy {
    fn new(plan: Plan, enabled: bool, seed: u64) -> Arc<FaultPolicy> {
        Arc::new(FaultPolicy {
            plan,
            enabled,
            state: Mutex::new(State {
                hits: 0,
                crashed: false,
                log: Vec::new(),
                // xorshift64 must not start at 0.
                rng: seed | 1,
            }),
            hold: StdMutex::new(Hold::default()),
            released: Condvar::new(),
        })
    }

    /// The no-op policy every production open uses.
    pub fn none() -> Arc<FaultPolicy> {
        Self::new(Plan::CountOnly, false, 0)
    }

    /// Count and record every fault point crossed; never inject.
    pub fn count_only() -> Arc<FaultPolicy> {
        Self::new(Plan::CountOnly, true, 0)
    }

    /// Simulate a crash at hit index `n` (0-based, counted across all
    /// fault points). `seed` drives the torn-write prefix length for
    /// [`FaultPoint::WalAppend`] and [`FaultPoint::WalFill`] crashes.
    pub fn crash_at(n: u64, seed: u64) -> Arc<FaultPolicy> {
        Self::new(Plan::CrashAt(n), true, seed)
    }

    /// Total fault-point hits so far.
    pub fn hits(&self) -> u64 {
        self.state.lock().hits
    }

    /// The fault points crossed, in order.
    pub fn log(&self) -> Vec<FaultPoint> {
        self.state.lock().log.clone()
    }

    /// Has the simulated crash fired?
    pub fn has_crashed(&self) -> bool {
        self.state.lock().crashed
    }

    /// Simulate a process crash at this instant, wherever the workload
    /// is: every later fault point fails, as after a fired
    /// [`FaultPolicy::crash_at`]. The no-op [`FaultPolicy::none`]
    /// ignores it — only a test policy can crash.
    pub fn crash_now(&self) {
        self.state.lock().crashed = true;
    }

    /// Park the next thread that crosses `point` — after its hit is
    /// counted and only if it does not crash there — until
    /// [`FaultPolicy::release`]. The no-op [`FaultPolicy::none`] never
    /// parks anyone.
    pub fn hold_next(&self, point: FaultPoint) {
        self.hold.lock().expect("hold mutex poisoned").armed = Some(point);
    }

    /// Whether a thread is parked at the held point.
    pub fn is_holding(&self) -> bool {
        self.hold.lock().expect("hold mutex poisoned").parked
    }

    /// Let the parked thread (if any) go on, and disarm the hold.
    pub fn release(&self) {
        let mut hold = self.hold.lock().expect("hold mutex poisoned");
        hold.armed = None;
        hold.parked = false;
        self.released.notify_all();
    }

    fn park_if_held(&self, point: FaultPoint) {
        let mut hold = self.hold.lock().expect("hold mutex poisoned");
        if hold.armed != Some(point) {
            return;
        }
        hold.armed = None;
        hold.parked = true;
        while hold.parked {
            hold = self.released.wait(hold).expect("hold mutex poisoned");
        }
    }

    /// The error an injected crash surfaces as.
    pub fn crash_error(point: FaultPoint) -> HipacError {
        HipacError::Io(format!("injected crash at {point:?}"))
    }

    /// Is `e` an injected-crash error (as opposed to a real failure)?
    pub fn is_injected(e: &HipacError) -> bool {
        matches!(e, HipacError::Io(msg) if msg.starts_with("injected crash at "))
    }

    /// Cross a non-write fault point. Errors when the policy decides to
    /// crash here (or already crashed).
    pub fn hit(&self, point: FaultPoint) -> Result<()> {
        self.on_write(point, 0).map(|_| ())
    }

    /// Cross a write-sized fault point. Returns:
    ///
    /// * `Ok(None)` — proceed with the full write;
    /// * `Ok(Some(n))` — *crash during the write*: the caller must
    ///   write exactly the first `n` bytes (possibly all of them:
    ///   crash-after-write) and then fail with
    ///   [`FaultPolicy::crash_error`];
    /// * `Err(_)` — crash before writing anything.
    pub fn on_write(&self, point: FaultPoint, len: usize) -> Result<Option<usize>> {
        if !self.enabled {
            return Ok(None);
        }
        let mut s = self.state.lock();
        if s.crashed {
            return Err(Self::crash_error(point));
        }
        let idx = s.hits;
        s.hits += 1;
        s.log.push(point);
        if let Plan::CrashAt(n) = self.plan {
            if idx == n {
                s.crashed = true;
                if len > 0 {
                    // xorshift64: deterministic torn-prefix length in
                    // 0..=len (len itself means crash-after-write).
                    let mut x = s.rng;
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    s.rng = x;
                    return Ok(Some((x % (len as u64 + 1)) as usize));
                }
                return Err(Self::crash_error(point));
            }
        }
        drop(s);
        self.park_if_held(point);
        Ok(None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_is_inert() {
        let p = FaultPolicy::none();
        for _ in 0..10 {
            p.hit(FaultPoint::WalSync).unwrap();
        }
        assert_eq!(p.hits(), 0, "disabled policy does not even count");
        assert!(!p.has_crashed());
    }

    #[test]
    fn count_only_logs_in_order() {
        let p = FaultPolicy::count_only();
        p.hit(FaultPoint::WalAppend).unwrap();
        p.hit(FaultPoint::WalSync).unwrap();
        p.on_write(FaultPoint::ImageWrite, 4096).unwrap();
        assert_eq!(p.hits(), 3);
        assert_eq!(
            p.log(),
            vec![
                FaultPoint::WalAppend,
                FaultPoint::WalSync,
                FaultPoint::ImageWrite
            ]
        );
    }

    #[test]
    fn crash_fires_once_then_sticks() {
        let p = FaultPolicy::crash_at(1, 7);
        p.hit(FaultPoint::WalAppend).unwrap();
        let err = p.hit(FaultPoint::WalSync).unwrap_err();
        assert!(FaultPolicy::is_injected(&err));
        assert!(p.has_crashed());
        // Every later hit fails too (the process is "dead").
        assert!(p.hit(FaultPoint::ImageWrite).is_err());
        assert!(p.on_write(FaultPoint::WalAppend, 100).is_err());
    }

    #[test]
    fn crash_now_sticks_on_test_policies_only() {
        let p = FaultPolicy::count_only();
        p.hit(FaultPoint::WalAppend).unwrap();
        p.crash_now();
        assert!(p.has_crashed());
        assert!(FaultPolicy::is_injected(
            &p.hit(FaultPoint::WalSync).unwrap_err()
        ));
        let inert = FaultPolicy::none();
        inert.crash_now();
        inert.hit(FaultPoint::WalSync).unwrap();
    }

    #[test]
    fn hold_parks_the_next_crossing_until_released() {
        let p = FaultPolicy::count_only();
        p.hold_next(FaultPoint::WalSync);
        p.hit(FaultPoint::WalAppend).unwrap();
        assert!(!p.is_holding());
        let parked = {
            let p = Arc::clone(&p);
            std::thread::spawn(move || p.hit(FaultPoint::WalSync))
        };
        while !p.is_holding() {
            std::thread::yield_now();
        }
        assert_eq!(p.hits(), 2, "the held hit is counted before it parks");
        p.release();
        parked.join().unwrap().unwrap();
        // One-shot: the next crossing goes straight through.
        p.hit(FaultPoint::WalSync).unwrap();
        assert!(!p.is_holding());
    }

    #[test]
    fn torn_write_prefix_is_deterministic_and_bounded() {
        for seed in [1u64, 2, 3, 99, 12345] {
            let a = FaultPolicy::crash_at(0, seed);
            let b = FaultPolicy::crash_at(0, seed);
            let na = a.on_write(FaultPoint::WalAppend, 64).unwrap().unwrap();
            let nb = b.on_write(FaultPoint::WalAppend, 64).unwrap().unwrap();
            assert_eq!(na, nb, "same seed, same torn length");
            assert!(na <= 64);
        }
    }

    #[test]
    fn injected_error_classification() {
        assert!(FaultPolicy::is_injected(&FaultPolicy::crash_error(
            FaultPoint::WalSync
        )));
        assert!(!FaultPolicy::is_injected(&HipacError::Io(
            "disk on fire".into()
        )));
    }
}
