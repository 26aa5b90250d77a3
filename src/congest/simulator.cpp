#include "congest/simulator.h"

#include <algorithm>
#include <functional>
#include <memory>
#include <new>
#include <numeric>
#include <string>

#include "runtime/thread_pool.h"

namespace qc::congest {

namespace {
constexpr std::uint64_t kNoWake = ~std::uint64_t{0};  ///< nobody sleeps
}  // namespace

std::uint32_t default_bandwidth(NodeId n) {
  const std::uint32_t logn = std::max<std::uint32_t>(1, clog2(std::max<NodeId>(n, 2)));
  return kBandwidthLogFactor * logn;
}

NodeId NodeContext::n() const { return sim_->csr_->node_count(); }
std::uint64_t NodeContext::round() const { return sim_->round_; }
std::uint32_t NodeContext::bandwidth() const { return sim_->bandwidth(); }

std::span<const HalfEdge> NodeContext::neighbors() const {
  return sim_->csr_->neighbors(id_);
}

bool NodeContext::has_neighbor(NodeId v) const {
  return sim_->slots_->slot(id_, v) != EdgeSlotIndex::kNoSlot;
}

std::uint32_t NodeContext::neighbor_slot(NodeId v) const {
  return sim_->slots_->slot(id_, v);
}

void NodeContext::send(NodeId to, Message m) {
  sim_->queue_message(id_, to, std::move(m));
}

void NodeContext::send_to_slot(std::uint32_t slot, Message m) {
  sim_->queue_to_slot(id_, slot, std::move(m));
}

void NodeContext::broadcast(const Message& m) {
  sim_->queue_broadcast(id_, m);
}

Rng& NodeContext::rng() { return sim_->node_rngs_[id_]; }

void NodeContext::sleep_until(std::uint64_t round) {
  sim_->request_sleep(id_, round);
}

Simulator::Simulator(const WeightedGraph& graph, Config config)
    : graph_(&graph),
      csr_(&graph.csr()),
      slots_(&graph.slot_index()),
      config_(std::move(config)),
      bandwidth_(config_.bandwidth_bits != 0
                     ? config_.bandwidth_bits
                     : default_bandwidth(graph.node_count())) {
  QC_REQUIRE(graph.node_count() >= 1, "network needs at least one node");
  const NodeId n = graph.node_count();
  Rng master(config_.seed);
  node_rngs_.reserve(n);
  for (NodeId v = 0; v < n; ++v) {
    node_rngs_.push_back(master.fork());
  }
  last_active_epoch_.assign(n, 0);
  node_done_.assign(n, 0);
  wake_round_.assign(n, 0);
  outbox_.resize(n);
  edge_bits_.assign(slots_->directed_edge_count(), 0);
  for (int b = 0; b < 2; ++b) {
    inbox_begin_[b].assign(n, 0);
    inbox_count_[b].assign(n, 0);
    touched_flag_[b].assign(n, 0);
  }
  fill_.assign(n, 0);
  // An empty plan constructs nothing: the fault path stays cold and the
  // fast path runs exactly as in a fault-free build.
  if (!config_.faults.empty()) {
    faults_ = std::make_unique<FaultEngine>(config_.faults, *slots_, n,
                                            config_.seed);
    edge_ordinal_.assign(slots_->directed_edge_count(), 0);
    for (NodeId v = 0; v < n; ++v) {
      const std::uint64_t c = faults_->crash_round(v);
      if (c != FaultEngine::kNeverCrashes) crash_watch_.emplace_back(c, v);
    }
    std::sort(crash_watch_.begin(), crash_watch_.end());
  }
}

Simulator::~Simulator() = default;

Simulator::MailArena::~MailArena() {
  std::destroy_n(data_, constructed_);
  ::operator delete(data_, std::align_val_t{alignof(Incoming)});
}

void Simulator::MailArena::ensure_capacity(std::size_t need) {
  if (need <= cap_) return;
  const std::size_t new_cap = std::max(need, cap_ * 2);
  auto* fresh = static_cast<Incoming*>(::operator new(
      new_cap * sizeof(Incoming), std::align_val_t{alignof(Incoming)}));
  std::uninitialized_move_n(data_, constructed_, fresh);
  std::destroy_n(data_, constructed_);
  ::operator delete(data_, std::align_val_t{alignof(Incoming)});
  data_ = fresh;
  cap_ = new_cap;
}

void Simulator::queue_message(NodeId from, NodeId to, Message m) {
  QC_CHECK(from < csr_->node_count(), "sender out of range");
  const std::uint32_t slot = slots_->slot(from, to);
  if (slot == EdgeSlotIndex::kNoSlot) {
    throw ModelError("node " + std::to_string(from) +
                     " tried to message non-neighbour " + std::to_string(to));
  }
  admit(from, to, slot, std::move(m));
}

void Simulator::queue_to_slot(NodeId from, std::uint32_t slot, Message m) {
  QC_CHECK(from < csr_->node_count(), "sender out of range");
  const auto row = csr_->neighbors(from);
  QC_REQUIRE(slot < row.size(), "neighbour slot out of range");
  admit(from, row[slot].to, slot, std::move(m));
}

// One admission sweep for all of from's edges: the epoch check runs
// once, the bandwidth row is walked sequentially, and the message is
// parked ONCE — expansion to per-receiver copies happens at scatter.
void Simulator::queue_broadcast(NodeId from, const Message& m) {
  QC_CHECK(from < csr_->node_count(), "sender out of range");
  const auto row = csr_->neighbors(from);
  if (row.empty()) return;
  if (last_active_epoch_[from] != epoch_) {
    throw ModelError("node " + std::to_string(from) +
                     " sent a message after declaring done");
  }
  const std::uint32_t bits = m.bit_size();
  const std::size_t base = slots_->edge_index(from, 0);
  auto& box = outbox_[from];
  for (std::uint32_t s = 0; s < row.size(); ++s) {
    const std::uint32_t used = edge_bits_[base + s] + bits;
    if (used > bandwidth_) {
      throw ModelError("bandwidth exceeded on edge " + std::to_string(from) +
                       "->" + std::to_string(row[s].to) + ": " +
                       std::to_string(used) +
                       " bits > B=" + std::to_string(bandwidth_) +
                       " in round " + std::to_string(round_));
    }
    edge_bits_[base + s] = used;
  }
  box.bcasts.emplace_back(box.next_seq++, m);
  if (queue_accounting_) {
    stats_.messages += row.size();
    stats_.bits += std::uint64_t{bits} * row.size();
    queued_count_ += row.size();
    if (config_.hooks.record_trace) {
      for (std::uint32_t s = 0; s < row.size(); ++s) {
        trace_.push_back(TraceEntry{round_, from, row[s].to, bits});
      }
    }
    for (std::uint32_t s = 0; s < row.size(); ++s) {
      const NodeId to = row[s].to;
      if (pending_count_[to]++ == 0) {
        pending_touched_->push_back(to);
        pending_flag_[to] = 1;
      }
    }
  }
}

void Simulator::admit(NodeId from, NodeId to, std::uint32_t slot, Message&& m) {
  // Defensive: a program can only reach its own context during its own
  // activation, but a buggy one that stashes a context pointer and sends
  // out of turn must not corrupt the ledger.
  if (last_active_epoch_[from] != epoch_) {
    throw ModelError("node " + std::to_string(from) +
                     " sent a message after declaring done");
  }
  const std::size_t e = slots_->edge_index(from, slot);
  const std::uint32_t used = edge_bits_[e] + m.bit_size();
  if (used > bandwidth_) {
    throw ModelError("bandwidth exceeded on edge " + std::to_string(from) +
                     "->" + std::to_string(to) + ": " + std::to_string(used) +
                     " bits > B=" + std::to_string(bandwidth_) +
                     " in round " + std::to_string(round_));
  }
  edge_bits_[e] = used;
  const std::uint32_t bits = m.bit_size();
  auto& box = outbox_[from];
  box.singles.emplace_back(to, slot, box.next_seq++, std::move(m));
  if (queue_accounting_) account(from, to, bits);
}

// Queue-time accounting (serial engine only): admissions arrive in
// (sender id, program order) — the exact order the merge pass would
// replay — so the ledger, trace, and receiver counts can be taken here
// and the merge's counting pass skipped.
void Simulator::account(NodeId from, NodeId to, std::uint32_t bits) {
  stats_.messages += 1;
  stats_.bits += bits;
  if (config_.hooks.record_trace) {
    trace_.push_back(TraceEntry{round_, from, to, bits});
  }
  if (pending_count_[to]++ == 0) {
    pending_touched_->push_back(to);
    pending_flag_[to] = 1;
  }
  ++queued_count_;
}

void Simulator::clear_mailbox(int b) {
  for (NodeId v : touched_[b]) {
    inbox_count_[b][v] = 0;
    touched_flag_[b][v] = 0;
  }
  touched_[b].clear();
}

// Shared placement pass: assigns contiguous arena rows (begin offsets +
// fill cursors) for `rows` starting at `off`; returns the end offset.
// All three merges route through here — the fast and faulted merges
// place every touched receiver from offset 0, the sharded merge places
// each shard's receivers from that shard's arena base.
std::size_t Simulator::place_rows(std::span<const NodeId> rows, int dst,
                                  std::size_t off) {
  auto& begin = inbox_begin_[dst];
  const auto& count = inbox_count_[dst];
  for (NodeId v : rows) {
    begin[v] = off;
    fill_[v] = off;
    off += count[v];
  }
  return off;
}

// Serial merge of the per-sender outboxes into mailbox buffer `dst`.
// Iterating senders in actives_ order (ascending node id) and each
// outbox in program order reproduces exactly the ledger/trace ordering
// of queue-time accounting in a serial engine — which is what makes
// pooled rounds byte-identical to serial ones.
void Simulator::merge_outboxes(int dst) {
  auto& arena = arena_[dst];
  auto& count = inbox_count_[dst];
  auto& touched = touched_[dst];

  // Pass 1: ledger, trace, per-receiver counts, replaying each sender's
  // singles and broadcasts interleaved in seq (= program) order. Skipped
  // when the serial engine already accounted at queue time (admission
  // order is the same order this pass replays).
  std::size_t total;
  if (queue_accounting_) {
    total = queued_count_;
  } else {
    total = 0;
    for (NodeId from : actives_) {
      const Outbox& box = outbox_[from];
      auto si = box.singles.begin();
      auto bi = box.bcasts.begin();
      const auto row = csr_->neighbors(from);
      while (si != box.singles.end() || bi != box.bcasts.end()) {
        if (bi == box.bcasts.end() ||
            (si != box.singles.end() && si->seq < bi->seq)) {
          const std::uint32_t bits = si->msg.bit_size();
          stats_.messages += 1;
          stats_.bits += bits;
          if (config_.hooks.record_trace) {
            trace_.push_back(TraceEntry{round_, from, si->to, bits});
          }
          if (count[si->to]++ == 0) {
            touched.push_back(si->to);
            touched_flag_[dst][si->to] = 1;
          }
          ++total;
          ++si;
        } else {
          const std::uint32_t bits = bi->msg.bit_size();
          stats_.messages += row.size();
          stats_.bits += std::uint64_t{bits} * row.size();
          total += row.size();
          for (const HalfEdge& he : row) {
            if (config_.hooks.record_trace) {
              trace_.push_back(TraceEntry{round_, from, he.to, bits});
            }
            if (count[he.to]++ == 0) {
              touched.push_back(he.to);
              touched_flag_[dst][he.to] = 1;
            }
          }
          ++bi;
        }
      }
    }
    queued_count_ = total;
  }

  // Pass 2: lay out contiguous per-receiver rows (first-receipt order —
  // row placement is not observable, only row contents are). The arena
  // only ever grows and never default-constructs ahead of use.
  arena.ensure_capacity(total);
  place_rows(touched, dst, 0);

  // Pass 3: scatter, replaying seq order per sender so each receiver's
  // row is in (sender id, program order) — the order the old
  // per-receiver push_back produced; broadcasts expand to one copy per
  // neighbour here (the last edge steals the parked message). Also
  // resets the bandwidth slots the round actually used (first visit
  // reads the edge's final total — the utilization sample — and zeroes
  // it; later visits no-op).
  Incoming* a = arena.data();
  const std::size_t watermark = arena.constructed();
  const auto reset_edge = [&](std::size_t e) {
    if (edge_bits_[e] != 0) {
      round_max_edge_bits_ = std::max(round_max_edge_bits_, edge_bits_[e]);
      edge_bits_[e] = 0;
    }
  };
  const auto put_move = [&](NodeId to, NodeId from, Message&& m) {
    const std::size_t idx = fill_[to]++;
    if (idx < watermark) {
      a[idx].from = from;
      a[idx].msg = std::move(m);
    } else {
      ::new (a + idx) Incoming{from, std::move(m)};
    }
  };
  const auto put_copy = [&](NodeId to, NodeId from, const Message& m) {
    const std::size_t idx = fill_[to]++;
    if (idx < watermark) {
      a[idx].from = from;
      a[idx].msg = m;
    } else {
      ::new (a + idx) Incoming{from, m};
    }
  };
  for (NodeId from : actives_) {
    Outbox& box = outbox_[from];
    if (box.empty()) continue;
    auto si = box.singles.begin();
    auto bi = box.bcasts.begin();
    const auto row = csr_->neighbors(from);
    const std::size_t base = row.empty() ? 0 : slots_->edge_index(from, 0);
    while (si != box.singles.end() || bi != box.bcasts.end()) {
      if (bi == box.bcasts.end() ||
          (si != box.singles.end() && si->seq < bi->seq)) {
        reset_edge(slots_->edge_index(from, si->slot));
        put_move(si->to, from, std::move(si->msg));
        ++si;
      } else {
        for (std::size_t s = 0; s + 1 < row.size(); ++s) {
          reset_edge(base + s);
          put_copy(row[s].to, from, bi->msg);
        }
        const std::size_t last = row.size() - 1;
        reset_edge(base + last);
        put_move(row[last].to, from, std::move(bi->msg));
        ++bi;
      }
    }
    box.clear();
  }
  arena.note_filled(total);
}

// Builds (or rebuilds, when the worker count changes) the receiver
// shard plan for the parallel merge. Topology-only: shard boundaries
// come from the CSR's degree-balanced prefix-sum cut, and the broadcast
// buckets are a per-row counting sort of each sender's adjacency slots
// by destination shard — both deterministic, both reusable across runs.
// Shards are capped at 64: node_shard_ stays one byte per node, and
// past ~64 receiver ranges the fork/join overhead dominates any split.
void Simulator::ensure_shard_plan(unsigned workers) {
  const unsigned want = std::min(workers, 64u);
  if (want == shard_plan_workers_) return;
  shard_plan_workers_ = want;
  const NodeId n = csr_->node_count();
  shard_bounds_ = csr_->balanced_node_shards(want);
  const std::size_t S = shard_bounds_.size() - 1;
  node_shard_.assign(n, 0);
  for (std::size_t sh = 0; sh < S; ++sh) {
    for (NodeId v = shard_bounds_[sh]; v < shard_bounds_[sh + 1]; ++v) {
      node_shard_[v] = static_cast<std::uint8_t>(sh);
    }
  }
  // Broadcast buckets: for every sender row, the local slots grouped by
  // destination shard, stable within a group (ascending slot — the
  // order the serial scatter visits them). bucket_off_ holds absolute
  // cuts into bucket_slot_, so a row's group sh is
  // bucket_slot_[off[sh], off[sh+1]).
  bucket_off_.assign(static_cast<std::size_t>(n) * (S + 1), 0);
  bucket_slot_.resize(slots_->directed_edge_count());
  bucket_cursor_.assign(S, 0);
  for (NodeId from = 0; from < n; ++from) {
    const auto row = csr_->neighbors(from);
    std::size_t* off =
        bucket_off_.data() + static_cast<std::size_t>(from) * (S + 1);
    off[0] = slots_->edge_index(from, 0);  // = the row's CSR offset
    std::fill(bucket_cursor_.begin(), bucket_cursor_.end(), 0);
    for (const HalfEdge& he : row) ++bucket_cursor_[node_shard_[he.to]];
    for (std::size_t sh = 0; sh < S; ++sh) {
      off[sh + 1] = off[sh] + bucket_cursor_[sh];
    }
    std::copy(off, off + S, bucket_cursor_.begin());
    for (std::uint32_t s = 0; s < row.size(); ++s) {
      bucket_slot_[bucket_cursor_[node_shard_[row[s].to]]++] = s;
    }
  }
  shard_touched_.resize(S);
  shard_base_.assign(S + 1, 0);
}

// Shard-parallel merge — the pooled counterpart of merge_outboxes, and
// the reason pooled rounds scale past the program phase (docs/perf.md,
// "Sharded mailbox delivery"). Two parallel phases around one serial
// reduce:
//   pass 1 fuses receiver-side counting (one task per shard: count[],
//   touched, shard totals — every write receiver-owned, so shard-
//   disjoint) with sender-side accounting (one task per balanced sender
//   chunk: ledger bits and the trace slice, whose position is known up
//   front because deliveries-per-sender is exactly trace-entries-per-
//   sender);
//   the serial reduce folds chunk tallies in deterministic order and
//   turns shard totals into arena region bases;
//   pass 2 places rows and scatters, one task per shard, each shard
//   replaying ALL senders in (sender id, program order) but emitting
//   only deliveries it owns — per-receiver row contents come out
//   byte-identical to the serial merge. Broadcasts expand via the
//   precomputed per-shard buckets; a directed edge's bandwidth slot is
//   owned by its destination's shard, so the reset/utilization sample
//   is race-free too.
// What may differ from the serial merge is only unobservable: touched_
// order (build_actives sorts or flag-scans), arena row placement
// (programs see spans), and that broadcast payloads are always copied
// (the serial merge moves the last copy).
void Simulator::merge_outboxes_sharded(int dst, runtime::ThreadPool& pool) {
  // Pass 0 (serial, O(#senders)): who queued mail and how many
  // deliveries each sender expands to. The per-sender counts are both
  // the balance weights for the accounting chunks and the trace-slice
  // prefix.
  merge_senders_.clear();
  sender_prefix_.clear();
  sender_prefix_.push_back(0);
  for (NodeId from : actives_) {
    const Outbox& box = outbox_[from];
    if (box.empty()) continue;
    merge_senders_.push_back(from);
    sender_prefix_.push_back(sender_prefix_.back() + box.singles.size() +
                             box.bcasts.size() * csr_->degree(from));
  }
  const auto total = static_cast<std::size_t>(sender_prefix_.back());
  const std::size_t S = shard_bounds_.size() - 1;
  if (merge_senders_.empty() || S < 2 ||
      total < config_.execution.sharded_merge_min_messages) {
    merge_outboxes(dst);  // nothing mutated yet: clean fallback
    return;
  }

  auto& arena = arena_[dst];
  auto& count = inbox_count_[dst];
  auto& touched = touched_[dst];
  char* tflag = touched_flag_[dst].data();

  stats_.messages += total;
  arena.ensure_capacity(total);
  const std::size_t trace_base = trace_.size();
  if (config_.hooks.record_trace) trace_.resize(trace_base + total);

  runtime::balanced_ranges(sender_prefix_, pool.worker_count() * 2,
                           sender_bounds_);
  const std::size_t C = sender_bounds_.size() - 1;
  merge_chunks_.assign(S + C, MergeChunk{});
  for (auto& mine : shard_touched_) mine.clear();

  // Pass 1 (parallel): tasks [0, S) count deliveries per owned
  // receiver; tasks [S, S+C) account a sender chunk's ledger bits and
  // fill its trace slice. The two sides touch disjoint state, so they
  // share one fork/join.
  runtime::parallel_for(pool, S + C, [&](std::size_t t) {
    if (t < S) {
      const auto sh = static_cast<std::uint8_t>(t);
      auto& mine = shard_touched_[t];
      std::uint64_t owned = 0;
      for (NodeId from : merge_senders_) {
        const Outbox& box = outbox_[from];
        for (const OutMsg& sm : box.singles) {
          if (node_shard_[sm.to] != sh) continue;
          if (count[sm.to] == 0) {
            mine.push_back(sm.to);
            tflag[sm.to] = 1;
          }
          ++count[sm.to];
          ++owned;
        }
        if (!box.bcasts.empty()) {
          const auto k = static_cast<std::uint32_t>(box.bcasts.size());
          const auto row = csr_->neighbors(from);
          const std::size_t* off =
              bucket_off_.data() + static_cast<std::size_t>(from) * (S + 1);
          for (std::size_t i = off[t]; i < off[t + 1]; ++i) {
            const NodeId to = row[bucket_slot_[i]].to;
            if (count[to] == 0) {
              mine.push_back(to);
              tflag[to] = 1;
            }
            count[to] += k;
          }
          owned += (off[t + 1] - off[t]) * std::uint64_t{k};
        }
      }
      merge_chunks_[t].total = owned;
    } else {
      const std::size_t c = t - S;
      std::uint64_t bits_sum = 0;
      TraceEntry* tr =
          config_.hooks.record_trace
              ? trace_.data() + trace_base + sender_prefix_[sender_bounds_[c]]
              : nullptr;
      for (std::size_t i = sender_bounds_[c]; i < sender_bounds_[c + 1]; ++i) {
        const NodeId from = merge_senders_[i];
        const Outbox& box = outbox_[from];
        auto si = box.singles.begin();
        auto bi = box.bcasts.begin();
        const auto row = csr_->neighbors(from);
        while (si != box.singles.end() || bi != box.bcasts.end()) {
          if (bi == box.bcasts.end() ||
              (si != box.singles.end() && si->seq < bi->seq)) {
            const std::uint32_t bits = si->msg.bit_size();
            bits_sum += bits;
            if (tr) *tr++ = TraceEntry{round_, from, si->to, bits};
            ++si;
          } else {
            const std::uint32_t bits = bi->msg.bit_size();
            bits_sum += std::uint64_t{bits} * row.size();
            if (tr) {
              for (const HalfEdge& he : row) {
                *tr++ = TraceEntry{round_, from, he.to, bits};
              }
            }
            ++bi;
          }
        }
      }
      merge_chunks_[t].bits = bits_sum;
    }
  });

  // Serial reduce, deterministic order: ledger bits chunk by chunk,
  // shard totals into contiguous arena region bases.
  for (std::size_t c = 0; c < C; ++c) stats_.bits += merge_chunks_[S + c].bits;
  std::size_t off = 0;
  for (std::size_t sh = 0; sh < S; ++sh) {
    shard_base_[sh] = off;
    off += static_cast<std::size_t>(merge_chunks_[sh].total);
  }
  shard_base_[S] = off;
  QC_CHECK(off == total, "sharded merge lost deliveries");

  // Pass 2 (parallel, one task per shard): place the shard's rows in
  // its arena region, then scatter by replaying every sender's seq
  // order and keeping only owned deliveries. Singles are moved (their
  // one consumer is this shard); broadcast payloads are copied (other
  // shards are reading them concurrently).
  Incoming* a = arena.data();
  const std::size_t watermark = arena.constructed();
  runtime::parallel_for(pool, S, [&](std::size_t t) {
    const auto sh = static_cast<std::uint8_t>(t);
    place_rows(shard_touched_[t], dst, shard_base_[t]);
    std::uint32_t max_bits = 0;
    const auto reset_edge = [&](std::size_t e) {
      if (edge_bits_[e] != 0) {
        max_bits = std::max(max_bits, edge_bits_[e]);
        edge_bits_[e] = 0;
      }
    };
    const auto put_move = [&](NodeId to, NodeId from, Message&& m) {
      const std::size_t idx = fill_[to]++;
      if (idx < watermark) {
        a[idx].from = from;
        a[idx].msg = std::move(m);
      } else {
        ::new (a + idx) Incoming{from, std::move(m)};
      }
    };
    const auto put_copy = [&](NodeId to, NodeId from, const Message& m) {
      const std::size_t idx = fill_[to]++;
      if (idx < watermark) {
        a[idx].from = from;
        a[idx].msg = m;
      } else {
        ::new (a + idx) Incoming{from, m};
      }
    };
    for (NodeId from : merge_senders_) {
      Outbox& box = outbox_[from];
      auto si = box.singles.begin();
      auto bi = box.bcasts.begin();
      const auto row = csr_->neighbors(from);
      const std::size_t base = row.empty() ? 0 : slots_->edge_index(from, 0);
      const std::size_t* boff =
          bucket_off_.data() + static_cast<std::size_t>(from) * (S + 1);
      while (si != box.singles.end() || bi != box.bcasts.end()) {
        if (bi == box.bcasts.end() ||
            (si != box.singles.end() && si->seq < bi->seq)) {
          if (node_shard_[si->to] == sh) {
            reset_edge(slots_->edge_index(from, si->slot));
            put_move(si->to, from, std::move(si->msg));
          }
          ++si;
        } else {
          for (std::size_t i = boff[t]; i < boff[t + 1]; ++i) {
            const std::uint32_t s = bucket_slot_[i];
            reset_edge(base + s);
            put_copy(row[s].to, from, bi->msg);
          }
          ++bi;
        }
      }
    }
    merge_chunks_[t].max_edge_bits = max_bits;
  });

  for (std::size_t sh = 0; sh < S; ++sh) {
    round_max_edge_bits_ =
        std::max(round_max_edge_bits_, merge_chunks_[sh].max_edge_bits);
  }
  arena.note_filled(total);
  for (const auto& mine : shard_touched_) {
    touched.insert(touched.end(), mine.begin(), mine.end());
  }
  for (NodeId from : merge_senders_) outbox_[from].clear();
  queued_count_ = total;
}

// Fault-path merge: same serial (sender id, program order) replay as
// merge_outboxes, but every send is resolved through the FaultEngine
// before it reaches a mailbox. The ledger and trace account every
// *attempted* send — the bandwidth was spent whether or not delivery
// succeeds — so an all-drop plan still shows the full message bill.
// Faults are keyed by delivery round (delivery_round_, set by run()
// before each merge), which is unique per merge even though the start
// merge and round 0's merge both run with round_ == 0.
void Simulator::merge_outboxes_faulted(int dst) {
  auto& arena = arena_[dst];
  auto& count = inbox_count_[dst];
  auto& touched = touched_[dst];
  char* tflag = touched_flag_[dst].data();
  FaultCounters& fc = fault_counters_;

  resolved_.clear();

  // Pass 1a: delayed messages whose adjusted round has come, in the
  // order their delays were decided (deterministic — decisions happen
  // in the serial merge). Only the receiver-crash check is re-run at
  // arrival; the fault decision itself was consumed at the original
  // delivery round.
  if (!delayed_.empty()) {
    std::size_t keep = 0;
    for (std::size_t i = 0; i < delayed_.size(); ++i) {
      Delayed& d = delayed_[i];
      if (d.round != delivery_round_) {
        if (keep != i) delayed_[keep] = std::move(d);
        ++keep;
        continue;
      }
      if (faults_->crashed_by(d.to, delivery_round_)) {
        ++fc.crash_drops;
      } else {
        resolved_.push_back(Delivery{d.to, d.from, std::move(d.msg)});
      }
    }
    delayed_.resize(keep);
  }

  // Pass 1b: this phase's sends. Resolution order per message:
  // link-down > receiver crash > explicit/probabilistic decision; a
  // delayed message is re-checked against receiver crashes on arrival.
  // The round's explicit-event bucket is resolved once here, not once
  // per message (events_ is a map keyed by delivery round).
  touched_edge_scratch_.clear();
  const std::vector<FaultEvent>* round_events =
      faults_->events_for_round(delivery_round_);
  const auto resolve = [&](NodeId from, NodeId to, std::size_t e,
                           Message&& m) {
    const std::uint32_t bits = m.bit_size();
    stats_.messages += 1;
    stats_.bits += bits;
    if (config_.hooks.record_trace) {
      trace_.push_back(TraceEntry{round_, from, to, bits});
    }
    // First visit reads the edge's final bandwidth total (the
    // utilization sample) and zeroes the slot — as in the fast merge.
    if (edge_bits_[e] != 0) {
      round_max_edge_bits_ = std::max(round_max_edge_bits_, edge_bits_[e]);
      edge_bits_[e] = 0;
    }
    const std::uint32_t ordinal = edge_ordinal_[e]++;
    if (ordinal == 0) touched_edge_scratch_.push_back(e);
    if (faults_->link_down(delivery_round_, from, to)) {
      ++fc.link_down_drops;
      return;
    }
    if (faults_->crashed_by(to, delivery_round_)) {
      ++fc.crash_drops;
      return;
    }
    const FaultEngine::Decision d =
        faults_->decide(delivery_round_, from, to, e, ordinal, round_events);
    if (d.drop) {
      ++fc.dropped;
      return;
    }
    if (d.corrupt) {
      m = FaultEngine::corrupted_copy(m, d);
      ++fc.corrupted;
    }
    if (d.delay > 0) {
      ++fc.delayed;
      delayed_.push_back(
          Delayed{delivery_round_ + d.delay, to, from, std::move(m)});
      return;
    }
    if (d.duplicate) {
      ++fc.duplicated;
      resolved_.push_back(Delivery{to, from, m});
    }
    resolved_.push_back(Delivery{to, from, std::move(m)});
  };

  for (NodeId from : actives_) {
    Outbox& box = outbox_[from];
    if (box.empty()) continue;
    auto si = box.singles.begin();
    auto bi = box.bcasts.begin();
    const auto row = csr_->neighbors(from);
    const std::size_t base = row.empty() ? 0 : slots_->edge_index(from, 0);
    while (si != box.singles.end() || bi != box.bcasts.end()) {
      if (bi == box.bcasts.end() ||
          (si != box.singles.end() && si->seq < bi->seq)) {
        resolve(from, si->to, slots_->edge_index(from, si->slot),
                std::move(si->msg));
        ++si;
      } else {
        for (std::size_t s = 0; s + 1 < row.size(); ++s) {
          Message copy = bi->msg;
          resolve(from, row[s].to, base + s, std::move(copy));
        }
        const std::size_t last = row.size() - 1;
        resolve(from, row[last].to, base + last, std::move(bi->msg));
        ++bi;
      }
    }
    box.clear();
  }
  for (const std::size_t e : touched_edge_scratch_) edge_ordinal_[e] = 0;

  // Pass 2 + 3: lay out and scatter the surviving deliveries, exactly
  // as the fast merge does from its outbox replay.
  const std::size_t total = resolved_.size();
  for (const Delivery& d : resolved_) {
    if (count[d.to]++ == 0) {
      touched.push_back(d.to);
      tflag[d.to] = 1;
    }
  }
  arena.ensure_capacity(total);
  place_rows(touched, dst, 0);
  Incoming* a = arena.data();
  const std::size_t watermark = arena.constructed();
  for (Delivery& d : resolved_) {
    const std::size_t idx = fill_[d.to]++;
    if (idx < watermark) {
      a[idx].from = d.from;
      a[idx].msg = std::move(d.msg);
    } else {
      ::new (a + idx) Incoming{d.from, std::move(d.msg)};
    }
  }
  arena.note_filled(total);
  // Delayed messages are still in flight: they must keep the run alive
  // until they arrive, so they count as queued work.
  queued_count_ = total + delayed_.size();
}

// Crash-stop: from its crash round on, a node neither computes nor
// sends. Deliveries *to* it are destroyed at merge time; here the node
// is removed from the live set so build_actives never schedules it
// again. crashed_nodes counts crash events that stopped a node that
// was still running (a node that finished before its crash round is
// unaffected); doneness is deterministic, so this tally is too. A node
// asleep at its crash round is still running — its busy-waiting twin
// would be in live_ — so it is stopped (and counted) in that round,
// never at its later wake round; skip_idle_rounds never jumps past a
// crash round, so crash_watch_ sees every one.
void Simulator::apply_crashes() {
  std::size_t keep = 0;
  for (std::size_t i = 0; i < live_.size(); ++i) {
    const NodeId v = live_[i];
    if (faults_->crashed_by(v, round_)) {
      node_done_[v] = 1;
      ++fault_counters_.crashed_nodes;
    } else {
      live_[keep++] = v;
    }
  }
  live_.resize(keep);
  for (; crash_cursor_ < crash_watch_.size() &&
         crash_watch_[crash_cursor_].first <= round_;
       ++crash_cursor_) {
    const NodeId v = crash_watch_[crash_cursor_].second;
    if (node_done_[v] == 0 && wake_round_[v] != 0) {
      node_done_[v] = 1;
      wake_round_[v] = 0;
      ++fault_counters_.crashed_nodes;
    }
  }
}

void Simulator::request_sleep(NodeId v, std::uint64_t until) {
  if (last_active_epoch_[v] != epoch_) {
    throw ModelError("node " + std::to_string(v) +
                     " called sleep_until outside its own activation");
  }
  if (until > round_ + 1) wake_round_[v] = until;
}

// Moves the sleepers due this round into live_ (awake again), keeping it
// sorted. Live heap entries are popped exactly in their round — the
// clock never jumps past the earliest one — so every due sleeper has
// wake round == round_ and pops in ascending node order.
void Simulator::wake_sleepers() {
  const std::size_t awake = live_.size();
  while (!sleepers_.empty() && sleepers_.front().first <= round_) {
    const auto [w, v] = sleepers_.front();
    std::pop_heap(sleepers_.begin(), sleepers_.end(), std::greater<>{});
    sleepers_.pop_back();
    if (wake_round_[v] != w || node_done_[v] != 0) continue;  // stale
    wake_round_[v] = 0;
    live_.push_back(v);
  }
  if (live_.size() != awake) {
    std::inplace_merge(live_.begin(), live_.begin() + awake, live_.end());
  }
}

// Earliest live wake round (dropping stale heap tops), or kNoWake.
std::uint64_t Simulator::next_wake() {
  while (!sleepers_.empty()) {
    const auto [w, v] = sleepers_.front();
    if (wake_round_[v] == w && node_done_[v] == 0) return w;
    std::pop_heap(sleepers_.begin(), sleepers_.end(), std::greater<>{});
    sleepers_.pop_back();
  }
  return kNoWake;
}

// Called when no node is awake and no message (delayed ones included)
// is in flight: every round before the earliest wake `wake` is idle, so
// the clock jumps there. The skipped rounds are exactly the busy-waiting
// twin's idle rounds: each is charged (round_ advances over it), each
// gets its zero metrics report, and the horizon throws exactly where
// the twin's round loop would — after reporting round max_rounds. The
// jump stops at the next plan crash so apply_crashes sees it on time.
void Simulator::skip_idle_rounds(std::uint64_t wake) {
  std::uint64_t target = wake;
  if (crash_cursor_ < crash_watch_.size()) {
    target = std::min(target, crash_watch_[crash_cursor_].first);
  }
  if (target <= round_) return;
  const std::uint64_t max_rounds = config_.execution.max_rounds;
  if (config_.hooks.on_round_metrics) {
    const std::uint64_t last = std::min(target, max_rounds + 1);
    for (std::uint64_t r = round_; r < last; ++r) {
      config_.hooks.on_round_metrics(RoundMetrics{r, 0, 0, 0, 0.0});
    }
  }
  if (target > max_rounds) {
    throw ModelError("simulation exceeded max_rounds=" +
                     std::to_string(max_rounds));
  }
  round_ = target;
}

// actives = live (awake, not-done) ∪ touched (has mail) — exactly the
// nodes the reference engine would run: done nodes and sleepers with
// empty inboxes are silent. live_ is always sorted; touched_ arrives in
// first-receipt order, so dense rounds use one O(n) flag scan
// (node_done_ and wake_round_ are maintained for every node, and a node
// outside live_ is exactly one that is done or asleep) while sparse
// rounds sort the short touched list and merge — the active-set design
// stays sub-O(n) when activity is sparse.
void Simulator::build_actives() {
  actives_.clear();
  auto& touched = touched_[cur_];
  const NodeId n = csr_->node_count();
  if ((touched.size() + live_.size()) * 8 >= n) {
    const char* flag = touched_flag_[cur_].data();
    for (NodeId v = 0; v < n; ++v) {
      if ((node_done_[v] == 0 && wake_round_[v] == 0) || flag[v] != 0) {
        actives_.push_back(v);
      }
    }
  } else {
    std::sort(touched.begin(), touched.end());
    std::set_union(live_.begin(), live_.end(), touched.begin(), touched.end(),
                   std::back_inserter(actives_));
  }
}

// Only active nodes can change doneness or sleep; inactive ones kept
// their state, so the new live set filters straight out of actives_
// (ascending, so live_ stays sorted) and new sleepers join the heap.
void Simulator::settle_actives() {
  live_.clear();
  for (NodeId v : actives_) {
    if (node_done_[v] != 0) {
      wake_round_[v] = 0;
    } else if (wake_round_[v] != 0) {
      sleepers_.emplace_back(wake_round_[v], v);
      std::push_heap(sleepers_.begin(), sleepers_.end(), std::greater<>{});
    } else {
      live_.push_back(v);
    }
  }
}

runtime::ThreadPool* Simulator::round_pool() {
  if (config_.execution.pool != nullptr) return config_.execution.pool;
  if (config_.execution.workers == 1) return nullptr;
  if (!own_pool_) {
    own_pool_ =
        std::make_unique<runtime::ThreadPool>(config_.execution.workers);
  }
  return own_pool_.get();
}

void Simulator::run_actives(
    std::span<const std::unique_ptr<NodeProgram>> programs,
    std::vector<NodeContext>& contexts) {
  const auto& arena = arena_[cur_];
  const auto& begin = inbox_begin_[cur_];
  const auto& count = inbox_count_[cur_];
  const auto run_one = [&](NodeId v) {
    wake_round_[v] = 0;  // every activation starts awake; mail cancels
    const std::span<const Incoming> inbox =
        count[v] != 0
            ? std::span<const Incoming>(arena.data() + begin[v], count[v])
            : std::span<const Incoming>();
    programs[v]->on_round(contexts[v], inbox);
    node_done_[v] = programs[v]->done() ? 1 : 0;
  };

  runtime::ThreadPool* pool = round_pool();
  if (pool == nullptr || actives_.size() <= 1) {
    for (NodeId v : actives_) run_one(v);
    return;
  }
  // Auto-serial fallback for low-traffic rounds: when the active set
  // plus this round's queued deliveries is tiny, the per-round
  // fork/join of the pool costs more than the programs themselves
  // (Algorithm 1's hop-limited SSSP is the canonical victim — a
  // handful of frontier messages per round, every round). Work is
  // measured in deliveries, not degree mass: an active node with an
  // empty inbox usually no-ops regardless of its degree. Serial and
  // pooled program phases are byte-identical by construction, so this
  // is a wall-clock decision only (mirrors
  // sharded_merge_min_messages; 0 disables the fallback).
  if (config_.execution.pooled_round_min_work != 0) {
    std::size_t work = actives_.size();
    for (NodeId v : actives_) work += count[v];
    if (work < config_.execution.pooled_round_min_work) {
      for (NodeId v : actives_) run_one(v);
      return;
    }
  }
  // Everything a worker touches here is owned by the node it runs:
  // programs[v], contexts[v], node_rngs_[v], outbox_[v], node_done_[v],
  // and the sender's disjoint stripe of edge_bits_. Shared engine state
  // (ledger, trace, mailboxes) is only touched in the merge, whose
  // parallel form partitions it by receiver shard.
  //
  // Chunks are cut by estimated per-node work — 1 + inbox size +
  // degree — not by node count: a hub node's on_round reads and sends
  // orders of magnitude more than a leaf's, and equal-count chunks
  // leave the hub's chunk as the straggler every round.
  actives_prefix_.clear();
  actives_prefix_.reserve(actives_.size() + 1);
  actives_prefix_.push_back(0);
  for (NodeId v : actives_) {
    actives_prefix_.push_back(actives_prefix_.back() + 1 + count[v] +
                              csr_->degree(v));
  }
  runtime::balanced_ranges(actives_prefix_,
                           static_cast<std::size_t>(pool->worker_count()) * 4,
                           actives_bounds_);
  runtime::parallel_for_ranges(
      *pool, actives_bounds_, [&](std::size_t, std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) run_one(actives_[i]);
      });
}

RunStats Simulator::run(std::span<const std::unique_ptr<NodeProgram>> programs) {
  const NodeId n = csr_->node_count();
  QC_REQUIRE(programs.size() == n, "need exactly one program per node");

  stats_ = RunStats{};
  round_ = 0;
  queued_count_ = 0;
  round_max_edge_bits_ = 0;
  trace_.clear();
  cur_ = 0;
  // Full reset (not just touched slots): a previous run may have been
  // aborted mid-round by a ModelError, leaving partial residue.
  for (int b = 0; b < 2; ++b) {
    std::fill(inbox_count_[b].begin(), inbox_count_[b].end(), 0u);
    std::fill(touched_flag_[b].begin(), touched_flag_[b].end(), char{0});
    touched_[b].clear();
    // Arena contents may be stale; rows are always assigned before they
    // are spanned, so no reset is needed.
  }
  for (auto& box : outbox_) box.clear();
  std::fill(edge_bits_.begin(), edge_bits_.end(), 0u);
  fault_counters_ = FaultCounters{};
  delayed_.clear();
  std::fill(wake_round_.begin(), wake_round_.end(), std::uint64_t{0});
  sleepers_.clear();
  crash_cursor_ = 0;
  if (faults_) {
    std::fill(edge_ordinal_.begin(), edge_ordinal_.end(), 0u);
  }

  // No pool configured → the serial engine accounts at queue time and
  // the merge skips its counting pass (same order, same bytes). With a
  // fault plan, accounting always defers to the (serial) faulted merge:
  // queue-time accounting counts receiver mailboxes at admission, before
  // the engine has decided whether the message survives.
  runtime::ThreadPool* pool = round_pool();
  queue_accounting_ = pool == nullptr && faults_ == nullptr;

  // Pooled fault-free runs merge through the receiver-sharded parallel
  // path once a phase is big enough (byte-identical either way — the
  // sharded merge falls back below its threshold). The faulted merge
  // stays serial: fault resolution order is part of its determinism
  // contract.
  if (pool != nullptr && faults_ == nullptr) {
    ensure_shard_plan(pool->worker_count());
  }
  const bool sharded =
      pool != nullptr && faults_ == nullptr && shard_bounds_.size() > 2;
  const auto do_merge = [&](int dst) {
    if (faults_) {
      merge_outboxes_faulted(dst);
    } else if (sharded) {
      merge_outboxes_sharded(dst, *pool);
    } else {
      merge_outboxes(dst);
    }
  };

  std::vector<NodeContext> contexts;
  contexts.reserve(n);
  for (NodeId v = 0; v < n; ++v) contexts.push_back(NodeContext(*this, v));

  // Start hook (counts as pre-round-0 local computation; sends land in
  // round 0 inboxes and in the round 0 metrics report).
  ++epoch_;
  std::fill(last_active_epoch_.begin(), last_active_epoch_.end(), epoch_);
  pending_count_ = inbox_count_[0].data();
  pending_touched_ = &touched_[0];
  pending_flag_ = touched_flag_[0].data();
  for (NodeId v = 0; v < n; ++v) {
    programs[v]->on_start(contexts[v]);
  }
  ++epoch_;  // close the start phase
  actives_.resize(n);
  std::iota(actives_.begin(), actives_.end(), NodeId{0});
  for (NodeId v = 0; v < n; ++v) {
    node_done_[v] = programs[v]->done() ? 1 : 0;
  }
  settle_actives();
  // Start-phase sends are delivered in round 0; round r's sends are
  // delivered in round r+1 (delivery_round_ keys the fault plan).
  delivery_round_ = 0;
  do_merge(0);

  std::uint64_t reported_messages = 0;
  std::uint64_t reported_bits = 0;
  for (;;) {
    // arena_[cur_] holds this round's deliveries (merged last phase).
    const bool had_messages = queued_count_ > 0;
    queued_count_ = 0;
    if (live_.empty() && !had_messages) {
      const std::uint64_t wake = next_wake();
      if (wake == kNoWake) break;
      skip_idle_rounds(wake);
    }

    wake_sleepers();
    if (faults_) apply_crashes();
    build_actives();
    clear_mailbox(1 - cur_);  // two-rounds-ago mail, no longer referenced
    pending_count_ = inbox_count_[1 - cur_].data();
    pending_touched_ = &touched_[1 - cur_];
    pending_flag_ = touched_flag_[1 - cur_].data();

    ++epoch_;
    for (NodeId v : actives_) last_active_epoch_[v] = epoch_;
    run_actives(programs, contexts);
    ++epoch_;  // close the round's program phase
    settle_actives();

    delivery_round_ = round_ + 1;
    do_merge(1 - cur_);

    if (config_.hooks.on_round_metrics) {
      config_.hooks.on_round_metrics(RoundMetrics{
          round_, stats_.messages - reported_messages,
          stats_.bits - reported_bits, static_cast<NodeId>(actives_.size()),
          static_cast<double>(round_max_edge_bits_) / bandwidth_});
      reported_messages = stats_.messages;
      reported_bits = stats_.bits;
    }
    round_max_edge_bits_ = 0;

    ++round_;
    if (round_ > config_.execution.max_rounds) {
      throw ModelError("simulation exceeded max_rounds=" +
                       std::to_string(config_.execution.max_rounds));
    }
    cur_ = 1 - cur_;
  }

  stats_.rounds = round_;
  return stats_;
}

}  // namespace qc::congest
