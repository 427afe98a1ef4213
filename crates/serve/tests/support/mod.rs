//! Shared helpers of the serve integration suites.

use rbm_im_serve::ServerHandle;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// Sets the flag when dropped, so a panicking body still stops the
/// resizer thread instead of leaving its scope waiting forever.
struct StopOnDrop<'a>(&'a AtomicBool);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Relaxed);
    }
}

/// Runs `body` while a scoped resizer thread toggles the live fleet one
/// shard up, then one down, within `[1, 4]`, until `body` returns — the
/// most hostile operator schedule: every spill, eviction and ingest of
/// `body` lands right after (or between) live migrations. A failed resize
/// fails the test. Returns the number of resizes performed.
pub fn while_resizing(server: &ServerHandle, body: impl FnOnce()) -> usize {
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let resizer = scope.spawn(|| {
            let mut resizes = 0;
            let mut grow = false;
            while !stop.load(Ordering::Relaxed) {
                grow = !grow;
                let current = server.num_shards();
                let target = if grow { (current + 1).min(4) } else { (current - 1).max(1) };
                if target != current {
                    server.resize_shards(target).expect("a live resize must succeed");
                    resizes += 1;
                }
                std::thread::sleep(Duration::from_millis(2));
            }
            resizes
        });
        {
            let _stop = StopOnDrop(&stop);
            body();
        }
        resizer.join().expect("the resizer thread panicked")
    })
}
