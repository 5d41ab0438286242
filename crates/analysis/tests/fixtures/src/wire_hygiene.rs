//! Wire-hygiene fixture: every `*Msg` variant handled by name.

pub enum GossipMsg {
    Ping,
    Summary(u64),
    Orphan,
    // analysis:allow(wire-hygiene, reason = "fixture: reserved for a later protocol revision, never sent")
    Reserved,
}

pub fn on_message(msg: GossipMsg) {
    match msg {
        GossipMsg::Ping => {}
        GossipMsg::Summary(_) => {}
        _ => {}
    }
}
