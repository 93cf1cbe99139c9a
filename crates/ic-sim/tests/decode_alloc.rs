//! The trace reader decodes the event lines its own writer produces
//! without touching the heap. A counting global allocator (per thread,
//! so parallel tests do not interfere) measures the streaming
//! `TraceReader::next_event` calls.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use ic_dag::NodeId;
use ic_sim::trace::{TraceEvent, TraceHeader, TraceReader};

struct Counting;

thread_local! {
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
}

// SAFETY: every call forwards to `System` with the caller's arguments;
// the counter is a const-initialized thread-local, which never
// allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations() -> usize {
    ALLOCS.with(Cell::get)
}

#[test]
fn writer_lines_decode_without_allocating() {
    let header = TraceHeader {
        version: 3,
        nodes: 8,
        arcs: vec![(0, 1)],
        clients: 2,
        seed: u64::MAX,
        policy: "FIFO".into(),
        workers: Vec::new(),
        fed: None,
    };
    let (task, client) = (NodeId(7), 1);
    let events = vec![
        TraceEvent::Allocated {
            step: 0,
            time: 0.0,
            client,
            task,
            pool: Some(3),
        },
        TraceEvent::Speculated {
            step: 1,
            time: 0.5,
            client,
            task,
            pool: None,
        },
        TraceEvent::Resumed {
            step: 2,
            time: 1e-7,
            client,
            task,
        },
        TraceEvent::Revoked {
            step: 3,
            time: 2.25,
            client,
            task,
        },
        TraceEvent::Failed {
            step: 4,
            time: 3.0,
            client,
            task,
            pool: Some(0),
        },
        TraceEvent::Idle {
            step: 5,
            time: 1e21,
            client,
        },
        TraceEvent::Completed {
            step: u64::MAX,
            time: 123.456,
            client,
            task,
            pool: Some(usize::MAX),
        },
    ];
    let mut text = header.to_json_line();
    for ev in &events {
        text.push_str(&ev.to_json_line());
    }

    let mut reader = TraceReader::new(&text);
    assert_eq!(reader.header().unwrap(), &header);
    for ev in &events {
        let before = allocations();
        let decoded = reader.next_event();
        assert_eq!(allocations(), before, "decoding {ev:?} allocated");
        assert_eq!(decoded.unwrap().as_ref(), Some(ev));
    }
    assert_eq!(reader.next_event().unwrap(), None);
}
