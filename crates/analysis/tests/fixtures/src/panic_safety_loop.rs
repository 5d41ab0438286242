//! Panic-safety fixture: the real-time node's entry points are seeds too.

pub fn node_loop(inbox: &[u8]) -> u8 {
    inbox[0]
}

pub fn serve_connection(frame: &[u8]) -> u8 {
    // analysis:allow(panic-safety::expect, reason = "fixture: the frame reader never hands over an empty body")
    *frame.first().expect("non-empty frame")
}
