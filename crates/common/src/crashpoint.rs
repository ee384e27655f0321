//! Named crash points for fault-injection tests.
//!
//! A crash point marks a spot where a process crash has interesting
//! durability consequences — e.g. between a `rename` and the directory
//! fsync that makes it durable. Production code calls
//! [`CrashPoints::check`] at the spot; the call is a no-op unless a test
//! has [`arm`](CrashPoints::arm)ed that name, in which case it returns an
//! error that unwinds the operation mid-flight, leaving exactly the
//! on-disk state a crash at that instant would leave. The test then
//! simulates the possible post-crash disk states and drives recovery.
//!
//! A [`CrashPoints`] is a cloneable handle to one set of armed names.
//! Each engine creates its own and passes it to the layers below it
//! (segment retirement, the checkpointer's `atomic_write`), so a point
//! armed on one database can only ever trip that database — tests
//! arming points may share a process and run concurrently. Trips are
//! one-shot: a point disarms itself when it fires.

use crate::{DaliError, Result};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Handle to one database's armed crash points; clones share the set.
#[derive(Clone, Debug, Default)]
pub struct CrashPoints {
    /// Armed points: name → number of checks to let pass before tripping.
    armed: Arc<Mutex<HashMap<String, u32>>>,
}

impl CrashPoints {
    fn armed(&self) -> std::sync::MutexGuard<'_, HashMap<String, u32>> {
        // Every update leaves the map valid, so a panic elsewhere while
        // the lock was held does not make it unusable.
        self.armed.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Arm `name`: the next [`check`](Self::check) of that name trips.
    pub fn arm(&self, name: &str) {
        self.arm_after(name, 0);
    }

    /// Arm `name`, letting `skip` checks pass first (the `skip + 1`-th
    /// check trips). Lets a test target one of several occurrences of
    /// the same point, e.g. the anchor write after the meta write.
    pub fn arm_after(&self, name: &str, skip: u32) {
        self.armed().insert(name.to_string(), skip);
    }

    /// Declare a crash point. Returns an error if `name` is armed (and
    /// disarms it — trips are one-shot); otherwise a no-op.
    pub fn check(&self, name: &str) -> Result<()> {
        let mut armed = self.armed();
        match armed.get_mut(name) {
            Some(0) => {
                armed.remove(name);
                Err(DaliError::Io(std::io::Error::other(format!(
                    "crash point tripped: {name}"
                ))))
            }
            Some(skip) => {
                *skip -= 1;
                Ok(())
            }
            None => Ok(()),
        }
    }

    /// Is `name` currently armed? (Diagnostics/assertions in tests.)
    pub fn is_armed(&self, name: &str) -> bool {
        self.armed().contains_key(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arm_trip_skip() {
        let points = CrashPoints::default();
        assert!(points.check("p").is_ok(), "unarmed point is a no-op");

        points.arm("p");
        assert!(points.is_armed("p"));
        assert!(points.check("q").is_ok(), "other names unaffected");
        assert!(points.check("p").is_err(), "armed point trips");
        assert!(!points.is_armed("p"), "trip is one-shot");
        assert!(points.check("p").is_ok());

        points.arm_after("p", 2);
        assert!(points.check("p").is_ok());
        assert!(points.check("p").is_ok());
        assert!(points.check("p").is_err(), "third check trips");
    }

    #[test]
    fn clones_share_the_set_and_instances_do_not() {
        let a = CrashPoints::default();
        let a2 = a.clone();
        let b = CrashPoints::default();
        a.arm("p");
        assert!(a2.is_armed("p"));
        assert!(!b.is_armed("p"));
        assert!(b.check("p").is_ok(), "another instance never trips");
        assert!(a2.check("p").is_err(), "a clone trips the shared point");
        assert!(!a.is_armed("p"));
    }
}
