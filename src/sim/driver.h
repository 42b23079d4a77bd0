// Protocol driver interface: how checkpointing protocols (Sync-and-Stop,
// Chandy–Lamport, CIC, uncoordinated timers) hook into the simulation
// engine. The application-driven approach of the paper needs no driver at
// all — its checkpoints are ordinary program statements and the hooks stay
// silent, which is precisely the "coordination-free" claim made runnable.
#pragma once

#include <cstdint>

namespace acfc::sim {

class Engine;

class ProtocolDriver {
 public:
  virtual ~ProtocolDriver() = default;

  /// Called once before the first event; schedule initial timers here.
  virtual void on_start(Engine& /*engine*/) {}

  /// A timer scheduled via Engine::schedule_timer fired.
  virtual void on_timer(Engine& /*engine*/, int /*proc*/, int /*timer_id*/) {}

  /// A control message arrived at `dst`.
  virtual void on_control(Engine& /*engine*/, int /*dst*/, int /*src*/,
                          int /*kind*/, long /*payload*/) {}

  /// Value to piggyback on an application message sent by `src`
  /// (communication-induced protocols use the checkpoint index).
  virtual long piggyback(Engine& /*engine*/, int /*src*/) { return 0; }

  /// Called at delivery time of an application message from `src` to
  /// `dst`, before the message becomes receivable — a CIC protocol may
  /// force a checkpoint here; a C-L protocol records channel state.
  virtual void before_delivery(Engine& /*engine*/, int /*dst*/, int /*src*/,
                               long /*piggyback_value*/) {}

  /// A process completed a checkpoint (statement-driven or forced).
  virtual void on_checkpoint(Engine& /*engine*/, int /*proc*/,
                             bool /*forced*/) {}

  /// A process reached the pause boundary after Engine::request_pause.
  virtual void on_paused(Engine& /*engine*/, int /*proc*/) {}

  /// The engine rolled the whole application back to a recovery line after
  /// `failed_proc` crashed; every process restarts by `resume_at`. All
  /// pending timers from before the rollback are dead (epoch-invalidated)
  /// and in-flight control messages were dropped, so drivers must reset
  /// any mutable round state and reschedule their timers here.
  virtual void on_rollback(Engine& /*engine*/, int /*failed_proc*/,
                           double /*resume_at*/) {}

  /// Return true to put the engine in SUPERVISED failure mode: a crash
  /// marks the process dead (events targeting it are dropped) but does NOT
  /// trigger rollback — recovery waits for an in-model verdict: the driver
  /// detects the crash (heartbeats) and calls Engine::supervised_restart
  /// or Engine::quarantine. This is how sim::Supervisor replaces engine
  /// omniscience with a failure detector. The engine asks on every crash.
  virtual bool wants_supervised_failures() const { return false; }
};

}  // namespace acfc::sim
