//! §4.2 — single-copy mobile nodes.
//!
//! A node (in practice a leaf, for data balancing [14]) migrates by copying
//! itself to the destination with an incremented version number, informing
//! its neighbours with version-ordered link-change actions, and deleting the
//! original. A forwarding address may be left behind as an optimization; it
//! is never required — a message that arrives for a missing node recovers by
//! restarting at a close local node (see `nav.rs`). The neighbours are found
//! by key, not by link: the notices are walked like any key-addressed
//! action, so they land on whichever node holds the link by then.

use history::ObserveKind;
use simnet::{Context, ProcId};

use crate::metrics::Ctr;
use crate::msg::{InstallReason, LinkDir, Msg};
use crate::proc::{DbProc, FORWARD_TTL, TIMER_FORWARD_GC};
use crate::store::ForwardAddr;
use crate::types::{ChildRef, Entry, Key, Link, NodeId, ParentHint};

impl DbProc {
    /// Owner side: migrate `node` to `dest`.
    ///
    /// Only sole-copy nodes migrate (replicated interior nodes change
    /// membership via join/unjoin instead).
    pub(crate) fn handle_migrate(
        &mut self,
        ctx: &mut Context<'_, Msg>,
        node: NodeId,
        dest: ProcId,
    ) {
        if dest == self.me {
            return;
        }
        let Some(copy) = self.store.get(node) else {
            return; // already gone (racing balancer decisions)
        };
        if copy.members.procs().len() != 1 {
            return;
        }
        let covered = self.copy_coverage(node);
        let mut copy = self.drop_copy(node).expect("checked above");
        copy.migrate_to(dest);

        if self.cfg.forwarding {
            self.store.set_forward(
                node,
                ForwardAddr {
                    to: dest,
                    version: copy.primary.version(),
                    created_at: ctx.now().ticks(),
                },
            );
            ctx.set_timer(FORWARD_TTL, TIMER_FORWARD_GC);
        }
        self.metrics.bump(Ctr::MigrationsOut, 1);
        ctx.send(
            dest,
            Msg::InstallCopy {
                snapshot: Box::new(copy.snapshot()),
                reason: InstallReason::Migration { from: self.me },
                covered,
            },
        );
    }

    /// Destination side: the node arrived — tell the neighbours where it
    /// lives now (link-changes are ordered by the node's version, §4.2).
    /// The right-link holder is whichever node of this level owns the key
    /// just left of this one's range, however many splits or absorbs raced
    /// the move (none left of key 0); each child is the node owning its
    /// separator one level down. Both notices start here and are walked.
    pub(crate) fn after_migration_in(
        &mut self,
        ctx: &mut Context<'_, Msg>,
        node: NodeId,
        _from: ProcId,
    ) {
        let (version, level, parent, low, seps) = {
            let copy = self.store.get(node).expect("just installed");
            let seps: Vec<Key> = copy
                .entries
                .iter()
                .filter(|(_, e)| e.child().is_some())
                .map(|(k, _)| *k)
                .collect();
            (
                copy.primary.version(),
                copy.level,
                copy.parent_link(),
                copy.low,
                seps,
            )
        };
        let here = Link::new(node, self.me);
        let left_of_me = low.checked_sub(1).map(|key| (LinkDir::Right, key, level));
        let children = seps
            .into_iter()
            .map(|sep| (LinkDir::Parent, sep, level - 1));
        for (dir, key, level) in left_of_me.into_iter().chain(children) {
            let msg = Msg::LinkChange {
                node,
                dir,
                link: here,
                version,
                key,
                level,
                tag: self.issue_tag("link-change"),
                relayed: false,
            };
            self.send_to_node(ctx, node, self.me, msg);
        }
        if let Some(p) = parent {
            let tag = self.issue_tag("child-home");
            let msg = Msg::ChildHomeChange {
                node: p.node,
                sep: low,
                child: node,
                home: self.me,
                version,
                tag,
                relayed: false,
            };
            self.send_to_node(ctx, p.node, p.home, msg);
        }
    }

    /// Apply a version-ordered link change (§4.2): update the link only if
    /// the action's version exceeds the link's recorded version and the
    /// link still names the migrated node; otherwise the action is stale and
    /// history is "rewritten" by skipping it.
    ///
    /// The initial form has been walked to a copy of the node that holds the
    /// link; it moves on to the node's PC, which applies it and relays it to
    /// the other copies.
    pub(crate) fn handle_link_change(&mut self, ctx: &mut Context<'_, Msg>, mut msg: Msg) {
        let Msg::LinkChange {
            node,
            dir,
            link,
            version,
            tag,
            relayed,
            ..
        } = msg
        else {
            unreachable!("dispatched by kind");
        };
        if !self.store.contains(node) {
            // A relay for a copy that migrated away, left, or never arrived
            // here. Follow a forwarding address if one exists; otherwise
            // drop — link changes refresh routing hints, which misnavigation
            // recovery tolerates being stale (§4.2: forwarding addresses
            // "are not required for correctness").
            // A retirement's forward aims at the absorber's *home*, which
            // may be this processor — following it would loop the message
            // back here forever. The retired node's links are moot anyway,
            // so a self-forward drops like a missing forward.
            match self.store.forward_for(node) {
                Some(fwd) if fwd.to != self.me => {
                    self.metrics.bump(Ctr::ForwardsFollowed, 1);
                    ctx.send(fwd.to, msg);
                }
                _ => self.observe_global(tag),
            }
            return;
        }
        let me = self.me;
        let pc = self
            .store
            .get(node)
            .map(|c| c.primary.pc())
            .expect("resident");
        if !relayed && me != pc {
            ctx.send(pc, msg);
            return;
        }
        let (applied, peers) = {
            let copy = self.store.get_mut(node).expect("checked");
            // Ordered-action rule (§4.2): apply only if the version exceeds
            // the slot's, and only while the slot still points at the
            // migrated node — versions of different nodes are not
            // comparable. The value is the action's position in its class's
            // order, when it applied.
            let applied = match dir {
                LinkDir::Right => copy
                    .relink_right(link, version)
                    .then_some(u128::from(version)),
                // The parent hint is a register with one join; a link change
                // refreshes the home and version of the parent it names.
                LinkDir::Parent => copy
                    .parent
                    .filter(|held| held.link.node == link.node)
                    .map(|held| ParentHint {
                        link,
                        version,
                        ..held
                    })
                    .filter(|hint| hint.join_into(&mut copy.parent))
                    .map(|hint| hint.order()),
            };
            let peers: Vec<ProcId> = copy.members.peers(me).collect();
            (applied, peers)
        };
        if let Some(mut log) = self.history() {
            log.observe(node.raw(), me.0, tag, ObserveKind::Applied);
            if !relayed {
                log.observe_initial(node.raw(), me.0, tag);
            }
            if let Some(order) = applied {
                log.ordered_applied(node.raw(), me.0, dir.class(), order);
            }
        }
        // The PC relays link changes to the other copies (a lazy update:
        // version ordering makes relay order irrelevant).
        if !relayed {
            if let Msg::LinkChange { relayed, .. } = &mut msg {
                *relayed = true;
            }
            for p in peers {
                ctx.send(p, msg.clone());
            }
        }
    }

    /// Apply a child-home change at a copy of the parent: the child at `sep`
    /// now lives on `home`. Ordered per entry by the child's version.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn handle_child_home_change(
        &mut self,
        ctx: &mut Context<'_, Msg>,
        node: NodeId,
        sep: Key,
        child: NodeId,
        home: ProcId,
        version: u64,
        tag: u64,
        relayed: bool,
    ) {
        let remake = |relayed| Msg::ChildHomeChange {
            node,
            sep,
            child,
            home,
            version,
            tag,
            relayed,
        };
        let Some(copy) = self.store.get(node) else {
            // Child-home changes refresh a routing hint; if we no longer
            // hold the parent (unjoined, or the hint raced a membership
            // change), drop it — stale hints are recovered by
            // misnavigation handling.
            let _ = remake;
            self.observe_global(tag);
            return;
        };
        // The child's range may have been split away from this parent node.
        if copy.range().is_right_of(sep) {
            // Relayed form: the split relay carried the entry's fate.
            if relayed {
                return;
            }
            // A zombie — its range ends below `sep` and it knows no right
            // neighbour; the walk would restart from the root — drops the
            // hint, as for a parent that is not resident.
            let Some(right) = copy.edge.right() else {
                self.observe_global(tag);
                return;
            };
            self.metrics.bump(Ctr::UpdateChases, 1);
            let msg = Msg::ChildHomeChange {
                node: right.node,
                sep,
                child,
                home,
                version,
                tag,
                relayed: false,
            };
            self.send_to_node(ctx, right.node, right.home, msg);
            return;
        }
        let me = self.me;
        let pc = copy.primary.pc();
        if !relayed && me != pc {
            // Route the initial form through the PC so exactly one copy
            // relays it.
            ctx.send(pc, remake(false));
            return;
        }
        // Ordered per entry by the child's version: a join into the entry,
        // while it still names the migrated child.
        let copy = self.store.get_mut(node).expect("checked");
        let held = copy.entries.get(&sep).and_then(Entry::child);
        if held.is_some_and(|cr| cr.node == child) {
            let moved = ChildRef {
                node: child,
                home,
                version,
            };
            copy.entries.join(sep, Entry::Child(moved));
        }
        if let Some(mut log) = self.history() {
            log.observe(node.raw(), me.0, tag, ObserveKind::Applied);
            if !relayed {
                log.observe_initial(node.raw(), me.0, tag);
            }
        }
        if !relayed {
            let peers: Vec<ProcId> = self
                .store
                .get(node)
                .map(|c| c.members.peers(me).collect())
                .unwrap_or_default();
            for p in peers {
                ctx.send(p, remake(true));
            }
        }
        // §4.3: losing a child may mean this processor should leave the
        // parent's replication.
        if self.cfg.variable_copies {
            self.maybe_unjoin(ctx, node);
        }
    }
}
