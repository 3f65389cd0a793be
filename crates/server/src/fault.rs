//! Deterministic fault injection for chaos testing.
//!
//! A [`FaultPlan`] is a seeded, shareable decision source: every
//! injection point in the stack (the connection's read, handle and
//! write steps, store I/O) asks it what to do at its site, and the plan
//! answers from a splitmix64 stream keyed by `(seed, site, event
//! counter)` — so two runs with the same seed and the same request
//! interleaving inject the same faults, and a production server simply
//! has no plan wired in (the `Option<Arc<FaultPlan>>` costs one branch
//! per request).
//!
//! The plan is deliberately std-only and knows nothing about HTTP or
//! the store: sites report *where* they are, the plan says *what*
//! happens, and each site maps the verdict onto whatever failure is
//! native there (a panic in a handler, an `io::Error` in the store, a
//! dropped connection in the accept path).

use std::any::Any;
use std::sync::atomic::{AtomicU64, Ordering};

/// The splitmix64 mixing function — the workspace's standard source of
/// deterministic pseudo-randomness (no OS entropy, no external crates).
#[must_use]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Where in the stack a fault decision is being made. Each site draws
/// from its own substream, so adding a site never perturbs the others.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultSite {
    /// Before the connection handler runs a parsed request.
    Handle,
    /// Before the server reads a request off an accepted connection.
    Read,
    /// Before the server writes a response back.
    Write,
    /// Before the trace store reads an object.
    StoreRead,
    /// Before the trace store stages a write.
    StoreWrite,
}

impl FaultSite {
    fn salt(self) -> u64 {
        match self {
            FaultSite::Handle => 0x1,
            FaultSite::Read => 0x2,
            FaultSite::Write => 0x3,
            FaultSite::StoreRead => 0x4,
            FaultSite::StoreWrite => 0x5,
        }
    }
}

/// What an injection site should do for one event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Proceed normally (the overwhelmingly common verdict).
    None,
    /// Panic — exercises the `catch_unwind` isolation around handlers
    /// and jobs.
    Panic,
    /// Sleep this many milliseconds first, then proceed — exercises
    /// timeouts and slow-peer handling.
    Delay(u64),
    /// Fail the operation: drop the connection, or surface an injected
    /// `io::Error` — exercises client retry and typed failure mapping.
    Error,
}

/// A seeded, thread-safe fault schedule shared across the whole process.
#[derive(Debug)]
pub struct FaultPlan {
    seed: u64,
    events: AtomicU64,
    injected: AtomicU64,
}

impl FaultPlan {
    /// A plan drawing every decision from `seed`.
    #[must_use]
    pub fn seeded(seed: u64) -> Self {
        FaultPlan {
            seed,
            events: AtomicU64::new(0),
            injected: AtomicU64::new(0),
        }
    }

    /// The seed the plan draws from.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// How many faults (non-[`Fault::None`] verdicts) have been injected.
    #[must_use]
    pub fn injected(&self) -> u64 {
        self.injected.load(Ordering::Relaxed)
    }

    /// The verdict for the next event at `site`. Fault rates are modest
    /// by design — most traffic must survive so a chaos run can also
    /// prove the surviving reports byte-identical.
    pub fn decide(&self, site: FaultSite) -> Fault {
        let event = self.events.fetch_add(1, Ordering::Relaxed);
        let roll = splitmix64(self.seed ^ splitmix64(event ^ (site.salt() << 56)));
        let fault = match site {
            // Per mille: panic 3%, delay 5%, drop 2% of handled requests.
            FaultSite::Handle => match roll % 1000 {
                0..=29 => Fault::Panic,
                30..=79 => Fault::Delay(1 + (roll >> 10) % 15),
                80..=99 => Fault::Error,
                _ => Fault::None,
            },
            // 2% of reads/writes lose their connection.
            FaultSite::Read | FaultSite::Write => match roll % 1000 {
                0..=19 => Fault::Error,
                _ => Fault::None,
            },
            // 4% of store operations fail with an injected io::Error.
            FaultSite::StoreRead | FaultSite::StoreWrite => match roll % 1000 {
                0..=39 => Fault::Error,
                _ => Fault::None,
            },
        };
        if fault != Fault::None {
            self.injected.fetch_add(1, Ordering::Relaxed);
        }
        fault
    }
}

/// Renders a `catch_unwind` payload as the human-readable panic message
/// (the `&str` / `String` payloads `panic!` produces), used everywhere a
/// captured panic becomes a typed failure.
#[must_use]
pub fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(message) = payload.downcast_ref::<&str>() {
        (*message).to_string()
    } else if let Some(message) = payload.downcast_ref::<String>() {
        message.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_are_deterministic_per_seed_and_mostly_quiet() {
        let a = FaultPlan::seeded(7);
        let b = FaultPlan::seeded(7);
        let verdicts_a: Vec<Fault> = (0..2000).map(|_| a.decide(FaultSite::Handle)).collect();
        let verdicts_b: Vec<Fault> = (0..2000).map(|_| b.decide(FaultSite::Handle)).collect();
        assert_eq!(verdicts_a, verdicts_b);
        assert_eq!(a.injected(), b.injected());
        // Faults are injected, but most events pass untouched.
        assert!(a.injected() > 0, "a 2000-event run must inject something");
        assert!(
            a.injected() < 500,
            "injected {} of 2000 — far too hot",
            a.injected()
        );
        // A different seed gives a different schedule.
        let c = FaultPlan::seeded(8);
        let verdicts_c: Vec<Fault> = (0..2000).map(|_| c.decide(FaultSite::Handle)).collect();
        assert_ne!(verdicts_a, verdicts_c);
    }

    #[test]
    fn panic_messages_are_extracted_from_standard_payloads() {
        let payload = std::panic::catch_unwind(|| panic!("boom {}", 7)).unwrap_err();
        assert_eq!(panic_message(payload.as_ref()), "boom 7");
        let payload = std::panic::catch_unwind(|| panic!("static")).unwrap_err();
        assert_eq!(panic_message(payload.as_ref()), "static");
    }
}
