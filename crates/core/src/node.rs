//! [`Node`]: the heterogeneous actor type of a simulated deployment
//! (replicas and clients in one world).

use gdur_sim::{Actor, Context, ProcessId};

use crate::messages::Msg;
use crate::pool::ClientPool;
use crate::replica::Replica;

/// One process of the deployment: a G-DUR replica or a pool of
/// load-driving clients.
#[expect(
    clippy::large_enum_variant,
    reason = "the pool is the common variant, one per client actor: boxing it too would add a \
              heap indirection per client and shrink nothing"
)]
#[derive(Debug)]
pub enum Node {
    /// A middleware instance, boxed: a deployment has a few replicas and
    /// up to thousands of client actors, each a `Node` slot.
    Replica(Box<Replica>),
    /// One or more closed-loop clients of a site in one actor.
    Pool(ClientPool),
}

// Every client actor is one `Node`: the enum must not pad it to a replica.
const _: () = assert!(
    std::mem::size_of::<Node>() <= std::mem::size_of::<ClientPool>() + std::mem::size_of::<usize>()
);

impl Node {
    /// The replica inside, if this node is one.
    pub fn as_replica(&self) -> Option<&Replica> {
        match self {
            Node::Replica(r) => Some(r),
            Node::Pool(_) => None,
        }
    }

    /// The client pool inside, if this node is one.
    pub fn as_pool(&self) -> Option<&ClientPool> {
        match self {
            Node::Pool(p) => Some(p),
            Node::Replica(_) => None,
        }
    }
}

impl Actor for Node {
    type Msg = Msg;

    fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
        match self {
            Node::Replica(_) => {}
            Node::Pool(p) => p.on_start(ctx),
        }
    }

    fn on_message(&mut self, ctx: &mut Context<'_, Msg>, from: ProcessId, msg: Msg) {
        match self {
            Node::Replica(r) => r.handle(ctx, from, msg),
            Node::Pool(p) => p.on_message(ctx, from, msg),
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, Msg>, tag: u64) {
        match self {
            Node::Replica(r) => r.on_timer(ctx, tag),
            Node::Pool(p) => p.on_timer(ctx, tag),
        }
    }

    fn on_restart(&mut self, ctx: &mut Context<'_, Msg>) {
        match self {
            Node::Replica(r) => r.on_restart(ctx),
            Node::Pool(p) => p.on_restart(ctx),
        }
    }
}
