#include "stats/annotate.h"

#include <algorithm>

#include "common/logging.h"

namespace ssum {

Annotations::Annotations(const SchemaGraph& graph)
    : card_(graph.size(), 0),
      slink_count_(graph.structural_links().size(), 0),
      vlink_count_(graph.value_links().size(), 0) {}

Annotations Annotations::Uniform(const SchemaGraph& graph) {
  Annotations a(graph);
  std::fill(a.card_.begin(), a.card_.end(), 1);
  std::fill(a.slink_count_.begin(), a.slink_count_.end(), 1);
  std::fill(a.vlink_count_.begin(), a.vlink_count_.end(), 1);
  return a;
}

double Annotations::TotalCard() const {
  double total = 0;
  for (uint64_t c : card_) total += static_cast<double>(c);
  return total;
}

uint64_t Annotations::TotalNodes() const {
  uint64_t total = 0;
  for (uint64_t c : card_) total += c;
  return total;
}

Status Annotations::Merge(const Annotations& other) {
  if (card_.size() != other.card_.size() ||
      slink_count_.size() != other.slink_count_.size() ||
      vlink_count_.size() != other.vlink_count_.size()) {
    return Status::FailedPrecondition(
        "Annotations::Merge: shape mismatch (" +
        std::to_string(card_.size()) + "/" +
        std::to_string(slink_count_.size()) + "/" +
        std::to_string(vlink_count_.size()) + " vs " +
        std::to_string(other.card_.size()) + "/" +
        std::to_string(other.slink_count_.size()) + "/" +
        std::to_string(other.vlink_count_.size()) +
        " elements/structural/value entries)");
  }
  for (size_t e = 0; e < card_.size(); ++e) card_[e] += other.card_[e];
  for (size_t l = 0; l < slink_count_.size(); ++l) {
    slink_count_[l] += other.slink_count_[l];
  }
  for (size_t l = 0; l < vlink_count_.size(); ++l) {
    vlink_count_[l] += other.vlink_count_[l];
  }
  return Status::OK();
}

Status Annotations::Subtract(const Annotations& other) {
  if (card_.size() != other.card_.size() ||
      slink_count_.size() != other.slink_count_.size() ||
      vlink_count_.size() != other.vlink_count_.size()) {
    return Status::FailedPrecondition(
        "Annotations::Subtract: shape mismatch (" +
        std::to_string(card_.size()) + "/" +
        std::to_string(slink_count_.size()) + "/" +
        std::to_string(vlink_count_.size()) + " vs " +
        std::to_string(other.card_.size()) + "/" +
        std::to_string(other.slink_count_.size()) + "/" +
        std::to_string(other.vlink_count_.size()) +
        " elements/structural/value entries)");
  }
  // Validate before mutating: a failed Subtract must leave this intact so
  // the caller can fall back to a cold pass on the unharmed base.
  for (size_t e = 0; e < card_.size(); ++e) {
    if (other.card_[e] > card_[e]) {
      return Status::FailedPrecondition(
          "Annotations::Subtract: cardinality underflow at element " +
          std::to_string(e));
    }
  }
  for (size_t l = 0; l < slink_count_.size(); ++l) {
    if (other.slink_count_[l] > slink_count_[l]) {
      return Status::FailedPrecondition(
          "Annotations::Subtract: structural-count underflow at link " +
          std::to_string(l));
    }
  }
  for (size_t l = 0; l < vlink_count_.size(); ++l) {
    if (other.vlink_count_[l] > vlink_count_[l]) {
      return Status::FailedPrecondition(
          "Annotations::Subtract: value-count underflow at link " +
          std::to_string(l));
    }
  }
  for (size_t e = 0; e < card_.size(); ++e) card_[e] -= other.card_[e];
  for (size_t l = 0; l < slink_count_.size(); ++l) {
    slink_count_[l] -= other.slink_count_[l];
  }
  for (size_t l = 0; l < vlink_count_.size(); ++l) {
    vlink_count_[l] -= other.vlink_count_[l];
  }
  return Status::OK();
}

double Annotations::RelativeCardinality(const SchemaGraph& graph,
                                        ElementId owner,
                                        const Neighbor& nbr) const {
  (void)graph;
  uint64_t owner_card = card_[owner];
  if (owner_card == 0) return 0.0;
  uint64_t count =
      nbr.is_structural ? slink_count_[nbr.link] : vlink_count_[nbr.link];
  return static_cast<double>(count) / static_cast<double>(owner_card);
}

namespace {

/// Figure 3 visitor: counts element and link instances while checking the
/// stream is a well-formed pre-order traversal.
///
/// Two anchoring modes:
///   - kRoot (AnnotateSchema): the stream is one full traversal — the first
///     node must be the schema root.
///   - kSubtrees (AnnotateUnits): the stream is a sequence of complete unit
///     subtrees rooted at non-root elements. Each unit root counts its
///     parent structural link exactly as the serial pass entering it under
///     its container does, so per-shard results merge to the serial counts.
class AnnotateVisitor : public InstanceVisitor {
 public:
  enum class Anchor { kRoot, kSubtrees };

  explicit AnnotateVisitor(const SchemaGraph& schema,
                           Anchor anchor = Anchor::kRoot)
      : schema_(schema), annotations_(schema), anchor_(anchor) {}

  void OnEnter(ElementId e) override {
    if (!status_.ok()) return;
    if (e >= schema_.size()) {
      status_ = Status::FailedPrecondition("stream: element id out of range");
      return;
    }
    if (stack_.empty()) {
      if (anchor_ == Anchor::kSubtrees) {
        if (e == schema_.root()) {
          status_ = Status::FailedPrecondition(
              "stream: unit subtree rooted at the schema root");
          return;
        }
        // The unit's container is not part of this shard's stream; count
        // the container -> unit-root link the serial pass would count.
        annotations_.increment_structural(schema_.parent_link(e));
      } else if (e != schema_.root()) {
        status_ = Status::FailedPrecondition(
            "stream: first node is not the schema root");
        return;
      }
    } else {
      if (schema_.parent(e) != stack_.back()) {
        status_ = Status::FailedPrecondition(
            "stream: node '" + schema_.label(e) +
            "' entered under node of element '" +
            schema_.label(stack_.back()) + "' but its schema parent is '" +
            (schema_.parent(e) == kInvalidElement
                 ? std::string("<none>")
                 : schema_.label(schema_.parent(e))) +
            "'");
        return;
      }
      annotations_.increment_structural(schema_.parent_link(e));
    }
    annotations_.increment_card(e);
    stack_.push_back(e);
  }

  void OnReference(LinkId vlink) override {
    if (!status_.ok()) return;
    if (vlink >= schema_.value_links().size()) {
      status_ = Status::FailedPrecondition("stream: vlink id out of range");
      return;
    }
    if (stack_.empty()) {
      status_ = Status::FailedPrecondition("stream: reference outside a node");
      return;
    }
    if (schema_.value_links()[vlink].referrer != stack_.back()) {
      status_ = Status::FailedPrecondition(
          "stream: reference emitted by element '" +
          schema_.label(stack_.back()) + "' but link referrer is '" +
          schema_.label(schema_.value_links()[vlink].referrer) + "'");
      return;
    }
    annotations_.increment_value(vlink);
  }

  void OnLeave(ElementId e) override {
    if (!status_.ok()) return;
    if (stack_.empty() || stack_.back() != e) {
      status_ = Status::FailedPrecondition("stream: unbalanced leave event");
      return;
    }
    stack_.pop_back();
  }

  Status Finish() {
    if (!status_.ok()) return status_;
    if (!stack_.empty()) {
      return Status::FailedPrecondition("stream: unclosed nodes at end");
    }
    return Status::OK();
  }

  Annotations Take() { return std::move(annotations_); }

 private:
  const SchemaGraph& schema_;
  Annotations annotations_;
  std::vector<ElementId> stack_;
  Status status_;
  Anchor anchor_;
};

/// Presents a sharded source's skeleton as a plain InstanceStream so the
/// root-anchored visitor path annotates it unchanged.
class SkeletonStream : public InstanceStream {
 public:
  explicit SkeletonStream(const ShardedInstanceSource& source)
      : source_(source) {}

  const SchemaGraph& schema() const override { return source_.schema(); }
  Status Accept(InstanceVisitor* visitor) const override {
    return source_.AcceptSkeleton(visitor);
  }

 private:
  const ShardedInstanceSource& source_;
};

}  // namespace

Result<Annotations> AnnotateSchema(const InstanceStream& stream) {
  AnnotateVisitor visitor(stream.schema());
  SSUM_RETURN_NOT_OK(stream.Accept(&visitor));
  SSUM_RETURN_NOT_OK(visitor.Finish());
  return visitor.Take();
}

Result<Annotations> AnnotateUnits(const ShardedInstanceSource& source,
                                  uint64_t begin, uint64_t end) {
  AnnotateVisitor visitor(source.schema(), AnnotateVisitor::Anchor::kSubtrees);
  SSUM_RETURN_NOT_OK(source.AcceptUnits(begin, end, &visitor));
  SSUM_RETURN_NOT_OK(visitor.Finish());
  return visitor.Take();
}

Result<Annotations> AnnotateSchemaSharded(const ShardedInstanceSource& source,
                                          const ShardedAnnotateOptions& options) {
  SSUM_RETURN_NOT_OK(options.parallel.deadline.Check("sharded annotation"));
  const uint64_t units = source.NumUnits();
  uint64_t shards = options.shards;
  if (shards == 0) {
    // Enough shards per thread that uneven unit subtrees still balance.
    shards = static_cast<uint64_t>(
                 ResolveThreadCount(options.parallel.threads)) *
             4;
  }
  shards = std::max<uint64_t>(1, std::min(shards, std::max<uint64_t>(1, units)));

  Annotations total;
  SSUM_ASSIGN_OR_RETURN(total, AnnotateSchema(SkeletonStream(source)));

  // One private Annotations per shard; ParallelFor's chunk schedule never
  // affects which shard writes which slot, so the reduction below is the
  // same for any thread count.
  // Passing the full ParallelOptions (not just the width) is what carries
  // the deadline to every shard claim: an expired budget fails the
  // remaining shards with kDeadlineExceeded instead of parsing them.
  std::vector<Annotations> parts(shards);
  std::vector<Status> statuses(shards, Status::OK());
  SSUM_RETURN_NOT_OK(ParallelFor(
      0, shards, 1,
      [&](size_t s) {
        UnitRange range = ShardUnitRange(units, s, shards);
        auto part = AnnotateUnits(source, range.begin, range.end);
        if (part.ok()) {
          parts[s] = std::move(*part);
        } else {
          statuses[s] = part.status();
        }
      },
      options.parallel));
  for (const Status& s : statuses) SSUM_RETURN_NOT_OK(s);
  // Counter addition is associative and commutative over uint64, but merge
  // in index order anyway: the reduction order is then a fixed, documented
  // property rather than an accident of scheduling.
  for (Annotations& part : parts) SSUM_RETURN_NOT_OK(total.Merge(part));
  return total;
}

EdgeMetrics EdgeMetrics::Compute(const SchemaGraph& graph,
                                 const Annotations& annotations) {
  const size_t n = graph.size();
  EdgeMetrics m;
  m.rc.resize(n);
  m.w.resize(n);
  m.edge_affinity.resize(n);
  m.mirror.resize(n);
  for (ElementId e = 0; e < n; ++e) {
    const auto& nbrs = graph.neighbors(e);
    auto& rc = m.rc[e];
    auto& w = m.w[e];
    auto& aff = m.edge_affinity[e];
    auto& mir = m.mirror[e];
    rc.resize(nbrs.size());
    w.resize(nbrs.size());
    aff.resize(nbrs.size());
    mir.resize(nbrs.size());
    double total_rc = 0;
    for (size_t i = 0; i < nbrs.size(); ++i) {
      rc[i] = annotations.RelativeCardinality(graph, e, nbrs[i]);
      total_rc += rc[i];
      aff[i] = rc[i] > 0 ? std::min(rc[i], 1.0 / rc[i]) : 0.0;
      // Locate the mirror adjacency record at the other endpoint: the entry
      // with the same link id and class, opposite direction.
      const auto& other_nbrs = graph.neighbors(nbrs[i].other);
      uint32_t found = 0;
      bool ok = false;
      for (size_t j = 0; j < other_nbrs.size(); ++j) {
        if (other_nbrs[j].link == nbrs[i].link &&
            other_nbrs[j].is_structural == nbrs[i].is_structural &&
            other_nbrs[j].forward != nbrs[i].forward) {
          found = static_cast<uint32_t>(j);
          ok = true;
          break;
        }
      }
      SSUM_CHECK(ok, "mirror adjacency entry not found");
      mir[i] = found;
    }
    if (total_rc > 0) {
      for (size_t i = 0; i < nbrs.size(); ++i) w[i] = rc[i] / total_rc;
    } else if (!nbrs.empty()) {
      // Zero-cardinality element: distribute uniformly so the importance
      // iteration still conserves total importance.
      double u = 1.0 / static_cast<double>(nbrs.size());
      std::fill(w.begin(), w.end(), u);
    }
  }
  return m;
}

}  // namespace ssum
