//! Opt-in kernel profiling: per-actor-class event accounting and queue-depth
//! sampling.
//!
//! The profile is strictly observational — it never touches the trace, the
//! event queue, or any RNG — so enabling it cannot perturb a run: the golden
//! reference trace hash is bit-identical with profiling on or off, and when
//! the flag is off the kernel pays a single branch per event.  Virtual
//! busy-time is not accumulated here at all: it already lives in each
//! node's [`crate::resource::Resource`] occupancy totals and is read lazily
//! via [`crate::World::class_busy_time`], making the off-cost provably zero.

/// Number of log2 queue-depth buckets (bucket = bit length of the depth).
pub const DEPTH_BUCKETS: usize = 65;

crate::counters! {
    /// Per-actor-class kernel event counts.
    ///
    /// The "class" is the node's [`crate::node::HostSpec`] name (`"coordinator"`,
    /// `"server"`, `"client"`, …), so heterogeneous grids profile per role
    /// without the kernel knowing anything about actors.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct ClassProfile {
        /// `on_start` dispatches.
        pub starts,
        /// NIC-level deliveries scheduled toward the class.
        pub delivers,
        /// `on_message` handler dispatches.
        pub handles,
        /// `on_timer` handler dispatches.
        pub timers,
    }
}

impl ClassProfile {
    /// All dispatches combined.
    pub fn total(&self) -> u64 {
        self.starts + self.delivers + self.handles + self.timers
    }
}

/// Which kind of kernel event is being profiled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProfiledEvent {
    /// An actor `on_start`.
    Start,
    /// A NIC delivery event.
    Deliver,
    /// An actor `on_message`.
    Handle,
    /// An actor `on_timer`.
    Timer,
    /// A control action (crash/restart/link change) — not attributed to a
    /// class.
    Control,
}

/// The kernel's opt-in profile: queue-depth samples plus per-class counts.
///
/// Classes are addressed by a dense index (handed out by
/// [`Self::add_class`], resolved by the world once per host), so the
/// per-event path is two array increments — no string compare, no map.
#[derive(Debug, Clone)]
pub struct KernelProfile {
    names: Vec<String>,
    counts: Vec<ClassProfile>,
    depth: [u64; DEPTH_BUCKETS],
    samples: u64,
    controls: u64,
}

impl Default for KernelProfile {
    fn default() -> Self {
        KernelProfile {
            names: Vec::new(),
            counts: Vec::new(),
            depth: [0; DEPTH_BUCKETS],
            samples: 0,
            controls: 0,
        }
    }
}

fn bucket_of(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

impl KernelProfile {
    /// Empty profile.
    pub fn new() -> Self {
        Self::default()
    }

    /// Empty profile over the given class names: class `i` of
    /// [`Self::observe`] is `names[i]`.
    pub fn for_classes(names: &[String]) -> Self {
        KernelProfile {
            names: names.to_vec(),
            counts: vec![ClassProfile::default(); names.len()],
            ..Self::default()
        }
    }

    /// Registers a class name and returns its index (the existing index if
    /// the name is already known).
    pub fn add_class(&mut self, name: &str) -> usize {
        if let Some(i) = self.names.iter().position(|n| n == name) {
            return i;
        }
        self.names.push(name.to_owned());
        self.counts.push(ClassProfile::default());
        self.names.len() - 1
    }

    /// Records one dispatched event: samples the queue depth and attributes
    /// the event to `class` (the destination node's class index, from
    /// [`Self::add_class`]).
    ///
    /// # Panics
    /// If `class` was not handed out by this profile.
    pub fn observe(&mut self, queue_depth: usize, class: Option<usize>, ev: ProfiledEvent) {
        self.depth[bucket_of(queue_depth as u64)] += 1;
        self.samples += 1;
        let Some(class) = class else {
            if ev == ProfiledEvent::Control {
                self.controls += 1;
            }
            return;
        };
        let slot = &mut self.counts[class];
        match ev {
            ProfiledEvent::Start => slot.starts += 1,
            ProfiledEvent::Deliver => slot.delivers += 1,
            ProfiledEvent::Handle => slot.handles += 1,
            ProfiledEvent::Timer => slot.timers += 1,
            ProfiledEvent::Control => {}
        }
    }

    /// Queue-depth samples taken (= events dispatched while profiling).
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// Control actions dispatched while profiling.
    pub fn controls(&self) -> u64 {
        self.controls
    }

    /// The profile of `class`, if any event was attributed to it.
    pub fn class(&self, class: &str) -> Option<&ClassProfile> {
        let i = self.names.iter().position(|n| n == class)?;
        Some(&self.counts[i]).filter(|p| p.total() > 0)
    }

    /// Iterates the profiles of classes that saw events, in name order.
    pub fn classes(&self) -> impl Iterator<Item = (&str, &ClassProfile)> {
        let mut seen: Vec<(&str, &ClassProfile)> = self
            .names
            .iter()
            .map(String::as_str)
            .zip(&self.counts)
            .filter(|(_, p)| p.total() > 0)
            .collect();
        seen.sort_unstable_by_key(|&(name, _)| name);
        seen.into_iter()
    }

    /// Non-zero queue-depth log2 buckets as `(bucket, samples)`, ascending.
    /// Bucket `b` covers depths whose bit length is `b`.
    pub fn depth_buckets(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.depth.iter().enumerate().filter(|(_, &n)| n > 0).map(|(b, &n)| (b, n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_attribute_to_classes() {
        let mut p = KernelProfile::for_classes(&["server".to_owned(), "client".to_owned()]);
        let server = p.add_class("server");
        let coordinator = p.add_class("coordinator");
        assert_eq!((server, coordinator), (0, 2));
        p.observe(0, Some(server), ProfiledEvent::Handle);
        p.observe(3, Some(server), ProfiledEvent::Timer);
        p.observe(5, Some(coordinator), ProfiledEvent::Deliver);
        p.observe(9, None, ProfiledEvent::Control);
        assert_eq!(p.samples(), 4);
        assert_eq!(p.controls(), 1);
        let s = p.class("server").unwrap();
        assert_eq!((s.handles, s.timers, s.total()), (1, 1, 2));
        assert_eq!(p.class("coordinator").unwrap().delivers, 1);
        // Registered but never observed: absent, exactly as if unknown.
        assert!(p.class("client").is_none());
        assert!(p.class("nobody").is_none());
        let names: Vec<&str> = p.classes().map(|(n, _)| n).collect();
        assert_eq!(names, ["coordinator", "server"], "name order, observed classes only");
    }

    #[test]
    fn depth_buckets_are_log2() {
        let mut p = KernelProfile::new();
        for d in [0usize, 1, 2, 3, 1024] {
            p.observe(d, None, ProfiledEvent::Control);
        }
        let buckets: Vec<_> = p.depth_buckets().collect();
        assert_eq!(buckets, vec![(0, 1), (1, 1), (2, 2), (11, 1)]);
    }
}
