#include "datasets/scenario.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>
#include <utility>

#include "common/hash.h"
#include "common/logging.h"
#include "common/string_util.h"
#include "core/importance.h"
#include "instance/unit_digest.h"
#include "query/generate_workload.h"
#include "schema/schema_builder.h"
#include "stats/delta.h"
#include "store/artifact_cache.h"

namespace ssum {
namespace {

/// Bump when generation changes for identical specs — the revision is part
/// of every scenario cache key, so stale annotation snapshots from an older
/// generator stop being addressed (same discipline as datasets/registry.cc).
constexpr uint64_t kScenarioRevision = 2;  // 2: mutate.* version-chain knobs

/// Rng stream ids forked off the spec seed. Units use the high-bit scheme
/// (stream << 48 | unit) so every unit replays standalone from the middle
/// of any shard (the XMark idiom).
constexpr uint64_t kGrowStream = 1;
constexpr uint64_t kLinkStream = 2;
constexpr uint64_t kWorkloadStream = 3;
constexpr uint64_t kUnitStream = 4;
/// Mutation streams fork off mutate_seed (not seed), so the same base
/// scenario mutated two different ways shares every untouched unit.
constexpr uint64_t kMutateUnitStream = 5;
constexpr uint64_t kMutateGrowStream = 6;

// --- spec parsing ----------------------------------------------------------

Status ReadU64(const ConfigMap& c, std::string_view key, uint64_t* out) {
  if (!c.Has(key)) return Status::OK();
  SSUM_ASSIGN_OR_RETURN(*out, c.GetUint(key));
  return Status::OK();
}

Status ReadU32(const ConfigMap& c, std::string_view key, uint32_t* out) {
  uint64_t v = *out;
  SSUM_RETURN_NOT_OK(ReadU64(c, key, &v));
  if (v > std::numeric_limits<uint32_t>::max()) {
    return Status::InvalidArgument("config key '" + std::string(key) +
                                   "' out of range");
  }
  *out = static_cast<uint32_t>(v);
  return Status::OK();
}

Status ReadDouble(const ConfigMap& c, std::string_view key, double* out) {
  if (!c.Has(key)) return Status::OK();
  auto v = c.GetDouble(key);
  SSUM_RETURN_NOT_OK(v.status());
  *out = *v;
  return Status::OK();
}

Status ReadString(const ConfigMap& c, std::string_view key, std::string* out) {
  if (!c.Has(key)) return Status::OK();
  auto v = c.GetString(key);
  SSUM_RETURN_NOT_OK(v.status());
  *out = *v;
  return Status::OK();
}

Status CheckFraction(double v, const char* what) {
  if (v < 0.0 || v > 1.0 || !std::isfinite(v)) {
    return Status::InvalidArgument(std::string(what) +
                                   " must be in [0, 1], got " +
                                   FormatDouble(v, 4));
  }
  return Status::OK();
}

Status ValidateSpec(const ScenarioSpec& s) {
  if (s.name.empty() || s.name.size() > 100 ||
      s.name.find('\n') != std::string::npos) {
    return Status::InvalidArgument("scenario name must be 1..100 characters");
  }
  if (s.entity_classes < 1 || s.entity_classes > 10000) {
    return Status::InvalidArgument("schema.entity_classes must be in "
                                   "[1, 10000]");
  }
  if (s.schema_elements < s.entity_classes + 1 || s.schema_elements > 1000000) {
    return Status::InvalidArgument(
        "schema.elements must be in [entity_classes + 1, 1000000]");
  }
  if (s.max_depth < 2 || s.max_depth > 64) {
    return Status::InvalidArgument("schema.max_depth must be in [2, 64]");
  }
  SSUM_RETURN_NOT_OK(CheckFraction(s.simple_fraction,
                                   "schema.simple_fraction"));
  SSUM_RETURN_NOT_OK(CheckFraction(s.choice_fraction,
                                   "schema.choice_fraction"));
  if (s.simple_fraction + s.choice_fraction > 1.0) {
    return Status::InvalidArgument(
        "schema.simple_fraction + schema.choice_fraction must be <= 1");
  }
  SSUM_RETURN_NOT_OK(CheckFraction(s.set_fraction, "schema.set_fraction"));
  if (s.fanout_skew <= 0.0 || s.fanout_skew > 16.0 ||
      !std::isfinite(s.fanout_skew)) {
    return Status::InvalidArgument("schema.fanout_skew must be in (0, 16]");
  }
  SSUM_RETURN_NOT_OK(CheckFraction(s.value_link_fraction,
                                   "schema.value_link_fraction"));
  if (s.instance_units < 1 || s.instance_units > 100000000) {
    return Status::InvalidArgument("instance.units must be in [1, 1e8]");
  }
  if (s.unit_skew != "uniform" && s.unit_skew != "zipf") {
    return Status::InvalidArgument("instance.unit_skew must be 'uniform' or "
                                   "'zipf', got '" + s.unit_skew + "'");
  }
  if (s.zipf_s <= 0.0 || s.zipf_s > 8.0 || !std::isfinite(s.zipf_s)) {
    return Status::InvalidArgument("instance.zipf_s must be in (0, 8]");
  }
  if (s.set_mean < 0.0 || s.set_mean > 1000.0 || !std::isfinite(s.set_mean)) {
    return Status::InvalidArgument("instance.set_mean must be in [0, 1000]");
  }
  SSUM_RETURN_NOT_OK(CheckFraction(s.presence, "instance.presence"));
  SSUM_RETURN_NOT_OK(CheckFraction(s.reference_prob,
                                   "instance.reference_prob"));
  if (s.max_unit_nodes < 1 || s.max_unit_nodes > 10000000) {
    return Status::InvalidArgument("instance.max_unit_nodes must be in "
                                   "[1, 1e7]");
  }
  SSUM_RETURN_NOT_OK(CheckFraction(s.mutate_fraction, "mutate.fraction"));
  SSUM_RETURN_NOT_OK(CheckFraction(s.mutate_amplitude, "mutate.amplitude"));
  if (s.mutate_add_elements > 1000000) {
    return Status::InvalidArgument("mutate.add_elements must be <= 1e6");
  }
  if (s.mutate_remove_elements > 1000000) {
    return Status::InvalidArgument("mutate.remove_elements must be <= 1e6");
  }
  if (s.queries < 1 || s.queries > 100000) {
    return Status::InvalidArgument("workload.queries must be in [1, 100000]");
  }
  if (s.query_mean_size < 1.0 || s.query_mean_size > 100.0 ||
      !std::isfinite(s.query_mean_size)) {
    return Status::InvalidArgument("workload.mean_size must be in [1, 100]");
  }
  SSUM_RETURN_NOT_OK(CheckFraction(s.query_focus, "workload.focus"));
  SSUM_RETURN_NOT_OK(CheckFraction(s.query_locality, "workload.locality"));
  if (s.summary_k < 1 || s.summary_k > 10000) {
    return Status::InvalidArgument("bench.summary_k must be in [1, 10000]");
  }
  if (s.tier != "quick" && s.tier != "full") {
    return Status::InvalidArgument("bench.tier must be 'quick' or 'full', "
                                   "got '" + s.tier + "'");
  }
  return Status::OK();
}

/// Skewed index pick over [0, n): exponent 1 is uniform, larger exponents
/// concentrate on low indices (the oldest, shallowest elements) — the
/// preferential-attachment knob of src/datasets/synthetic.h.
size_t SkewedIndex(Rng* rng, size_t n, double skew) {
  double u = rng->NextDouble();
  size_t i = static_cast<size_t>(static_cast<double>(n) * std::pow(u, skew));
  return std::min(i, n - 1);
}

/// Set-mean multiplier the mutation layer applies to `unit` (1.0 =
/// untouched). Draws from its own forked Rng, never the unit stream, so an
/// unselected unit replays byte-identically to the unmutated version — the
/// invariant the whole delta path rests on. Shared by EmitUnit and
/// DirtyUnitsBetween, which must agree exactly.
double MutateUnitMultiplier(const ScenarioSpec& spec, uint64_t unit) {
  if (spec.mutate_fraction <= 0.0) return 1.0;
  Rng m = Rng(spec.mutate_seed).Fork((kMutateUnitStream << 48) | unit);
  if (m.NextDouble() >= spec.mutate_fraction) return 1.0;
  return 1.0 + spec.mutate_amplitude * (2.0 * m.NextDouble() - 1.0);
}

}  // namespace

Result<ScenarioSpec> ParseScenarioSpec(const ConfigMap& config) {
  ScenarioSpec spec;
  SSUM_RETURN_NOT_OK(ReadString(config, "name", &spec.name));
  SSUM_RETURN_NOT_OK(ReadU64(config, "seed", &spec.seed));
  SSUM_RETURN_NOT_OK(ReadU32(config, "schema.elements", &spec.schema_elements));
  SSUM_RETURN_NOT_OK(
      ReadU32(config, "schema.entity_classes", &spec.entity_classes));
  SSUM_RETURN_NOT_OK(ReadU32(config, "schema.max_depth", &spec.max_depth));
  SSUM_RETURN_NOT_OK(
      ReadDouble(config, "schema.simple_fraction", &spec.simple_fraction));
  SSUM_RETURN_NOT_OK(
      ReadDouble(config, "schema.choice_fraction", &spec.choice_fraction));
  SSUM_RETURN_NOT_OK(
      ReadDouble(config, "schema.set_fraction", &spec.set_fraction));
  SSUM_RETURN_NOT_OK(
      ReadDouble(config, "schema.fanout_skew", &spec.fanout_skew));
  SSUM_RETURN_NOT_OK(ReadDouble(config, "schema.value_link_fraction",
                                &spec.value_link_fraction));
  SSUM_RETURN_NOT_OK(ReadU64(config, "instance.units", &spec.instance_units));
  SSUM_RETURN_NOT_OK(ReadString(config, "instance.unit_skew", &spec.unit_skew));
  SSUM_RETURN_NOT_OK(ReadDouble(config, "instance.zipf_s", &spec.zipf_s));
  SSUM_RETURN_NOT_OK(ReadDouble(config, "instance.set_mean", &spec.set_mean));
  SSUM_RETURN_NOT_OK(ReadDouble(config, "instance.presence", &spec.presence));
  SSUM_RETURN_NOT_OK(
      ReadDouble(config, "instance.reference_prob", &spec.reference_prob));
  SSUM_RETURN_NOT_OK(
      ReadU32(config, "instance.max_unit_nodes", &spec.max_unit_nodes));
  SSUM_RETURN_NOT_OK(ReadU64(config, "mutate.seed", &spec.mutate_seed));
  SSUM_RETURN_NOT_OK(
      ReadDouble(config, "mutate.fraction", &spec.mutate_fraction));
  SSUM_RETURN_NOT_OK(
      ReadDouble(config, "mutate.amplitude", &spec.mutate_amplitude));
  SSUM_RETURN_NOT_OK(
      ReadU32(config, "mutate.add_elements", &spec.mutate_add_elements));
  SSUM_RETURN_NOT_OK(
      ReadU32(config, "mutate.remove_elements", &spec.mutate_remove_elements));
  SSUM_RETURN_NOT_OK(ReadU32(config, "workload.queries", &spec.queries));
  SSUM_RETURN_NOT_OK(
      ReadDouble(config, "workload.mean_size", &spec.query_mean_size));
  SSUM_RETURN_NOT_OK(ReadDouble(config, "workload.focus", &spec.query_focus));
  SSUM_RETURN_NOT_OK(
      ReadDouble(config, "workload.locality", &spec.query_locality));
  SSUM_RETURN_NOT_OK(ReadU32(config, "bench.summary_k", &spec.summary_k));
  SSUM_RETURN_NOT_OK(ReadString(config, "bench.tier", &spec.tier));
  SSUM_RETURN_NOT_OK(config.CheckAllKeysRead());
  SSUM_RETURN_NOT_OK(ValidateSpec(spec));
  return spec;
}

Result<ScenarioSpec> ParseScenarioSpecText(std::string_view text,
                                           std::string_view source,
                                           const ParseLimits& limits) {
  ConfigMap config;
  SSUM_ASSIGN_OR_RETURN(config, ConfigMap::Parse(text, source, limits));
  return ParseScenarioSpec(config);
}

Result<ScenarioSpec> LoadScenarioSpecFile(const std::string& path,
                                          const ParseLimits& limits) {
  ConfigMap config;
  SSUM_ASSIGN_OR_RETURN(config, ConfigMap::ParseFile(path, limits));
  return ParseScenarioSpec(config);
}

std::string SerializeScenarioSpec(const ScenarioSpec& s) {
  std::string out;
  auto line = [&out](std::string_view key, const std::string& value) {
    out.append(key);
    out.append(": ");
    out.append(value);
    out.push_back('\n');
  };
  auto num = [](double v) { return FormatDouble(v, 6); };
  line("name", s.name);
  line("seed", std::to_string(s.seed));
  line("schema.elements", std::to_string(s.schema_elements));
  line("schema.entity_classes", std::to_string(s.entity_classes));
  line("schema.max_depth", std::to_string(s.max_depth));
  line("schema.simple_fraction", num(s.simple_fraction));
  line("schema.choice_fraction", num(s.choice_fraction));
  line("schema.set_fraction", num(s.set_fraction));
  line("schema.fanout_skew", num(s.fanout_skew));
  line("schema.value_link_fraction", num(s.value_link_fraction));
  line("instance.units", std::to_string(s.instance_units));
  line("instance.unit_skew", s.unit_skew);
  line("instance.zipf_s", num(s.zipf_s));
  line("instance.set_mean", num(s.set_mean));
  line("instance.presence", num(s.presence));
  line("instance.reference_prob", num(s.reference_prob));
  line("instance.max_unit_nodes", std::to_string(s.max_unit_nodes));
  line("mutate.seed", std::to_string(s.mutate_seed));
  line("mutate.fraction", num(s.mutate_fraction));
  line("mutate.amplitude", num(s.mutate_amplitude));
  line("mutate.add_elements", std::to_string(s.mutate_add_elements));
  line("mutate.remove_elements", std::to_string(s.mutate_remove_elements));
  line("workload.queries", std::to_string(s.queries));
  line("workload.mean_size", num(s.query_mean_size));
  line("workload.focus", num(s.query_focus));
  line("workload.locality", num(s.query_locality));
  line("bench.summary_k", std::to_string(s.summary_k));
  line("bench.tier", s.tier);
  return out;
}

Fingerprint ScenarioFingerprint(const ScenarioSpec& spec) {
  Fnv1a64 h;
  h.Update("ssum-scenario-fp:");
  h.UpdateU64(kScenarioRevision);
  h.Update(SerializeScenarioSpec(spec));
  return Fingerprint{h.Digest()};
}

Result<std::vector<uint64_t>> DirtyUnitsBetween(const ScenarioSpec& base,
                                                const ScenarioSpec& next) {
  // Only the per-unit perturbation knobs may differ: anything else changes
  // the schema or the unit layout, where this shortcut would lie.
  ScenarioSpec a = base;
  ScenarioSpec b = next;
  a.mutate_seed = b.mutate_seed = 0;
  a.mutate_fraction = b.mutate_fraction = 0.0;
  a.mutate_amplitude = b.mutate_amplitude = 0.0;
  if (SerializeScenarioSpec(a) != SerializeScenarioSpec(b)) {
    return Status::InvalidArgument(
        "DirtyUnitsBetween: specs differ beyond mutate seed/fraction/"
        "amplitude; use unit digests instead");
  }
  std::vector<uint64_t> dirty;
  for (uint64_t u = 0; u < base.instance_units; ++u) {
    // A unit's bytes depend on the mutation layer only through this
    // multiplier (EmitUnit), so equal multipliers mean identical bytes.
    if (MutateUnitMultiplier(base, u) != MutateUnitMultiplier(next, u)) {
      dirty.push_back(u);
    }
  }
  return dirty;
}

// --- schema synthesis ------------------------------------------------------

ScenarioDataset::ScenarioDataset(ScenarioSpec spec, SchemaGraph schema)
    : spec_(std::move(spec)), schema_(std::move(schema)) {}

Result<ScenarioDataset> ScenarioDataset::Make(const ScenarioSpec& spec) {
  SSUM_RETURN_NOT_OK(ValidateSpec(spec));

  SchemaBuilder builder("db");
  Rng grow = Rng(spec.seed).Fork(kGrowStream);

  // Entity-class roots: the shard boundary. Each class is a SetOf Rcd child
  // of the root, and every unit of the stream is one instance of one class.
  std::vector<ElementId> class_roots;
  class_roots.reserve(spec.entity_classes);
  for (uint32_t c = 0; c < spec.entity_classes; ++c) {
    class_roots.push_back(
        builder.SetRcd(builder.Root(), "c" + std::to_string(c)));
  }

  // Grow the remaining budget: each new element attaches under a skew-picked
  // interior element (non-Simple, depth < max_depth; never the root, so the
  // skeleton stays root-only and units stay entity subtrees).
  std::vector<ElementId> interior = class_roots;
  uint32_t budget = spec.schema_elements - 1 - spec.entity_classes;
  for (uint32_t i = 0; i < budget; ++i) {
    ElementId parent =
        interior[SkewedIndex(&grow, interior.size(), spec.fanout_skew)];
    double u = grow.NextDouble();
    bool set_of = grow.NextBool(spec.set_fraction);
    // A Choice at the depth cap could never receive a branch (its children
    // would exceed max_depth), so the draw degrades to Rcd there.
    bool choice_ok = builder.graph().depth(parent) + 1 < spec.max_depth;
    ElementId id;
    bool is_interior = false;
    std::string tag = std::to_string(builder.graph().size());
    if (u < spec.simple_fraction) {
      id = set_of ? builder.SetSimple(parent, "s" + tag)
                  : builder.Simple(parent, "s" + tag);
    } else if (choice_ok &&
               u < spec.simple_fraction + spec.choice_fraction) {
      id = builder.Choice(parent, "ch" + tag, set_of);
      is_interior = true;
    } else {
      id = set_of ? builder.SetRcd(parent, "r" + tag)
                  : builder.Rcd(parent, "r" + tag);
      is_interior = true;
    }
    if (is_interior && builder.graph().depth(id) < spec.max_depth) {
      interior.push_back(id);
    }
  }

  // Mutation-layer growth: extra elements appended *after* the base budget
  // from a stream forked off mutate_seed, so the base schema is a stable
  // id-prefix of every mutated version. (A schema change still moves the
  // schema fingerprint — added elements key a cold path by design.)
  if (spec.mutate_add_elements > 0) {
    Rng mut_grow = Rng(spec.mutate_seed).Fork(kMutateGrowStream);
    for (uint32_t i = 0; i < spec.mutate_add_elements; ++i) {
      ElementId parent =
          interior[SkewedIndex(&mut_grow, interior.size(), spec.fanout_skew)];
      bool set_of = mut_grow.NextBool(spec.set_fraction);
      std::string tag = std::to_string(builder.graph().size());
      // Mutation growth only adds Simple leaves: enough to change the
      // schema shape without re-running Choice repair bookkeeping.
      ElementId id = set_of ? builder.SetSimple(parent, "ms" + tag)
                            : builder.Simple(parent, "ms" + tag);
      (void)id;
    }
  }

  // Choice repair: a childless Choice can never instantiate a branch, so
  // give each one a Simple alternative (deterministic, id-ordered).
  {
    std::vector<ElementId> childless;
    const SchemaGraph& g = builder.graph();
    for (ElementId e = 0; e < g.size(); ++e) {
      if (g.type(e).kind == TypeKind::kChoice && g.children(e).empty()) {
        childless.push_back(e);
      }
    }
    for (ElementId e : childless) {
      builder.Simple(e, "alt" + std::to_string(builder.graph().size()));
    }
  }

  // Value links between non-Simple, non-root endpoints; duplicates and
  // self-links are re-drawn (bounded attempts keep hostile fractions
  // terminating).
  {
    Rng link = Rng(spec.seed).Fork(kLinkStream);
    const SchemaGraph& g = builder.graph();
    std::vector<ElementId> candidates;
    for (ElementId e = 1; e < g.size(); ++e) {
      if (g.type(e).kind != TypeKind::kSimple) candidates.push_back(e);
    }
    if (candidates.size() >= 2) {
      size_t target = static_cast<size_t>(
          std::llround(spec.value_link_fraction * static_cast<double>(g.size())));
      std::set<std::pair<ElementId, ElementId>> seen;
      size_t attempts = 0;
      while (seen.size() < target && attempts < 10 * target + 16) {
        ++attempts;
        ElementId a = candidates[link.NextBounded(candidates.size())];
        ElementId b = candidates[link.NextBounded(candidates.size())];
        if (a == b || !seen.emplace(a, b).second) continue;
        builder.Link(a, b);
      }
    }
  }

  ScenarioDataset ds(spec, std::move(builder).Build());
  ds.class_roots_ = std::move(class_roots);

  // Apportion units over classes: uniform, or zipf-weighted 1/(c+1)^s via
  // largest remainder so the shares sum to exactly instance_units.
  {
    uint32_t n = spec.entity_classes;
    std::vector<double> weights(n, 1.0);
    if (spec.unit_skew == "zipf") {
      for (uint32_t c = 0; c < n; ++c) {
        weights[c] = 1.0 / std::pow(static_cast<double>(c + 1), spec.zipf_s);
      }
    }
    double total = 0.0;
    for (double w : weights) total += w;
    std::vector<uint64_t> units(n, 0);
    std::vector<std::pair<double, uint32_t>> remainders;
    uint64_t assigned = 0;
    for (uint32_t c = 0; c < n; ++c) {
      double exact =
          static_cast<double>(spec.instance_units) * weights[c] / total;
      units[c] = static_cast<uint64_t>(exact);
      assigned += units[c];
      remainders.emplace_back(-(exact - static_cast<double>(units[c])), c);
    }
    std::sort(remainders.begin(), remainders.end());
    for (uint32_t i = 0; assigned < spec.instance_units; ++i) {
      ++units[remainders[i % n].second];
      ++assigned;
    }
    ds.class_base_.assign(1, 0);
    for (uint32_t c = 0; c < n; ++c) {
      ds.class_base_.push_back(ds.class_base_.back() + units[c]);
    }
  }

  ds.vlinks_of_.assign(ds.schema_.size(), {});
  const auto& vlinks = ds.schema_.value_links();
  for (LinkId l = 0; l < vlinks.size(); ++l) {
    ds.vlinks_of_[vlinks[l].referrer].push_back(l);
  }

  // Data-level removal: suppress the highest-id Simple leaves. Restricted
  // to Simple on purpose — emitting a Simple instance consumes no Rng
  // draws, so dropping it leaves every other byte of the unit identical to
  // the unmutated version (only units that contained it go dirty).
  ds.mutate_suppressed_.assign(ds.schema_.size(), 0);
  if (spec.mutate_remove_elements > 0) {
    uint32_t left = spec.mutate_remove_elements;
    for (ElementId e = ds.schema_.size(); left > 0 && e-- > 1;) {
      if (ds.schema_.type(e).kind == TypeKind::kSimple) {
        ds.mutate_suppressed_[e] = 1;
        --left;
      }
    }
  }

  if (spec.unit_skew == "zipf") {
    ds.set_zipf_ = std::make_unique<ZipfTable>(16, spec.zipf_s);
  }
  return ds;
}

// --- instance stream -------------------------------------------------------

/// Splittable scenario stream: unit u is the u-th entity instance in
/// class-major order, generated from Rng(seed).Fork(kUnitStream<<48 | u) so
/// any sub-range replays byte-identically without the preceding events.
class ScenarioStream : public InstanceStream, public ShardedInstanceSource {
 public:
  explicit ScenarioStream(const ScenarioDataset* ds) : ds_(ds) {}

  const SchemaGraph& schema() const override { return ds_->schema(); }

  Status Accept(InstanceVisitor* v) const override {
    v->OnEnter(schema().root());
    SSUM_RETURN_NOT_OK(EmitRange(0, NumUnits(), v));
    v->OnLeave(schema().root());
    return Status::OK();
  }

  uint64_t NumUnits() const override { return ds_->NumUnits(); }

  Status AcceptSkeleton(InstanceVisitor* v) const override {
    v->OnEnter(schema().root());
    v->OnLeave(schema().root());
    return Status::OK();
  }

  Status AcceptUnits(uint64_t begin, uint64_t end,
                     InstanceVisitor* v) const override {
    SSUM_RETURN_NOT_OK(ValidateUnitRange(begin, end, NumUnits()));
    return EmitRange(begin, end, v);
  }

 private:
  Status EmitRange(uint64_t begin, uint64_t end, InstanceVisitor* v) const {
    const auto& base = ds_->class_base_;
    // First class whose range contains `begin`.
    size_t c = static_cast<size_t>(
        std::upper_bound(base.begin(), base.end(), begin) - base.begin() - 1);
    for (uint64_t u = begin; u < end; ++u) {
      while (u >= base[c + 1]) ++c;
      EmitUnit(u, ds_->class_roots_[c], v);
    }
    return Status::OK();
  }

  void EmitUnit(uint64_t unit, ElementId entity, InstanceVisitor* v) const {
    const ScenarioSpec& spec = ds_->spec();
    Rng rng = Rng(spec.seed).Fork((kUnitStream << 48) | unit);
    // Zipf mode heavy-tails the unit's set counts: a few huge entities,
    // many small ones — the within-extent analogue of the class skew.
    double set_mean = spec.set_mean;
    if (ds_->set_zipf_ != nullptr) {
      set_mean *= 1.0 + static_cast<double>(ds_->set_zipf_->Sample(&rng));
    }
    set_mean *= MutateUnitMultiplier(spec, unit);
    uint64_t budget = spec.max_unit_nodes;
    EmitElement(entity, set_mean, &rng, &budget, v);
  }

  void EmitElement(ElementId e, double set_mean, Rng* rng, uint64_t* budget,
                   InstanceVisitor* v) const {
    if (*budget == 0) return;
    --*budget;
    v->OnEnter(e);
    for (LinkId l : ds_->vlinks_of_[e]) {
      if (rng->NextBool(ds_->spec().reference_prob)) v->OnReference(l);
    }
    const SchemaGraph& g = ds_->schema();
    const ElementType& type = g.type(e);
    const auto& children = g.children(e);
    if (type.kind == TypeKind::kChoice && !children.empty()) {
      // Exactly one branch per choice instance (instance/conformance.h).
      EmitElement(children[rng->NextBounded(children.size())], set_mean, rng,
                  budget, v);
    } else if (type.kind == TypeKind::kRcd) {
      for (ElementId child : children) {
        uint64_t count = g.type(child).set_of
                             ? rng->NextPoisson(set_mean)
                             : (rng->NextBool(ds_->spec().presence) ? 1 : 0);
        // Draw first, then drop: the Rng sequence every sibling sees stays
        // identical whether or not this leaf is suppressed.
        if (ds_->mutate_suppressed_[child] != 0) count = 0;
        for (uint64_t i = 0; i < count; ++i) {
          EmitElement(child, set_mean, rng, budget, v);
        }
      }
    }
    v->OnLeave(e);
  }

  const ScenarioDataset* ds_;
};

std::unique_ptr<InstanceStream> ScenarioDataset::MakeStream() const {
  return std::make_unique<ScenarioStream>(this);
}

std::unique_ptr<ShardedInstanceSource> ScenarioDataset::MakeShardedSource()
    const {
  return std::make_unique<ScenarioStream>(this);
}

Result<Workload> ScenarioDataset::Queries(
    const Annotations& annotations) const {
  ImportanceResult importance = ComputeImportance(schema_, annotations);
  WorkloadGenOptions options;
  options.num_queries = spec_.queries;
  options.mean_size = spec_.query_mean_size;
  options.focus = spec_.query_focus;
  options.locality = spec_.query_locality;
  options.seed = Rng(spec_.seed).Fork(kWorkloadStream).Next();
  Workload workload = GenerateWorkload(schema_, importance.importance, options);
  workload.name = spec_.name;
  return workload;
}

// --- registry/cache integration --------------------------------------------

Result<DatasetBundle> LoadScenario(const ScenarioSpec& spec,
                                   ArtifactCache* cache) {
  auto made = ScenarioDataset::Make(spec);
  if (!made.ok()) return made.status();
  const ScenarioDataset& ds = *made;

  // Keyed by generator identity (revision + canonical spec) mixed with the
  // schema fingerprint — never a stream digest, which would cost the same
  // traversal annotating does (see datasets/registry.cc).
  Fingerprint key =
      MixFingerprints(ScenarioFingerprint(spec), FingerprintSchema(ds.schema()));

  Annotations ann;
  bool loaded = false;
  if (cache != nullptr) {
    if (auto hit = cache->LoadAnnotations(ds.schema(), key)) {
      ann = std::move(*hit);
      loaded = true;
    }
  }
  if (!loaded) {
    auto source = ds.MakeShardedSource();
    SSUM_ASSIGN_OR_RETURN(ann, AnnotateSchemaSharded(*source));
    if (cache != nullptr) {
      Status installed = cache->StoreAnnotations(key, ann);
      if (!installed.ok()) {
        SSUM_LOG(kWarning) << "cache: scenario annotations install failed: "
                           << installed.ToString();
      }
    }
  }

  uint64_t nodes = ann.TotalNodes();
  Workload workload;
  SSUM_ASSIGN_OR_RETURN(workload, ds.Queries(ann));
  DatasetBundle bundle{"scenario:" + spec.name,
                       SchemaGraph("tmp"),
                       std::move(ann),
                       std::move(workload),
                       /*paper_summary_size=*/spec.summary_k,
                       nodes};
  bundle.schema = ds.schema();
  return bundle;
}

Result<DatasetBundle> LoadScenarioFile(const std::string& path,
                                       ArtifactCache* cache) {
  ScenarioSpec spec;
  SSUM_ASSIGN_OR_RETURN(spec, LoadScenarioSpecFile(path));
  return LoadScenario(spec, cache);
}

namespace {

/// The annotation cache key LoadScenario uses — delta lineage links must be
/// keyed identically or resolution would never find them.
Fingerprint ScenarioAnnotationKey(const ScenarioDataset& ds) {
  return MixFingerprints(ScenarioFingerprint(ds.spec()),
                         FingerprintSchema(ds.schema()));
}

/// Base annotations for the delta pass: lineage-aware cache lookup first,
/// cold annotation (with install) otherwise.
Result<Annotations> BaseAnnotations(const ScenarioDataset& base,
                                    ArtifactCache* cache,
                                    uint32_t* lineage_hops) {
  if (cache != nullptr) {
    if (auto hit =
            cache->LoadAnnotationsLineage(base.schema(),
                                          ScenarioAnnotationKey(base))) {
      *lineage_hops = hit->delta_hops;
      return std::move(hit->annotations);
    }
  }
  auto source = base.MakeShardedSource();
  Annotations ann;
  SSUM_ASSIGN_OR_RETURN(ann, AnnotateSchemaSharded(*source));
  if (cache != nullptr) {
    if (Status s = cache->StoreAnnotations(ScenarioAnnotationKey(base), ann);
        !s.ok()) {
      SSUM_LOG(kWarning) << "cache: base annotations install failed: "
                         << s.ToString();
    }
  }
  return ann;
}

}  // namespace

Result<ScenarioDeltaResult> AnnotateScenarioDelta(const ScenarioDataset& base,
                                                  const ScenarioDataset& next,
                                                  ArtifactCache* cache) {
  ScenarioDeltaResult result;
  result.total_units = next.NumUnits();
  SSUM_ASSIGN_OR_RETURN(
      result.base_annotations,
      BaseAnnotations(base, cache, &result.lineage_hops));

  // Preconditions of per-unit identity; violations are expected states
  // (mutate.add_elements changes the schema by design), not errors.
  if (FingerprintSchema(base.schema()) != FingerprintSchema(next.schema())) {
    result.fallback_reason = "schema changed between versions";
  } else if (base.NumUnits() != next.NumUnits()) {
    result.fallback_reason = "unit count changed between versions";
  }

  std::vector<uint64_t> dirty;
  if (result.fallback_reason.empty()) {
    // Analytic fast path (two Rng draws per unit) when only the per-unit
    // mutation knobs moved; the digest diff covers every other same-schema
    // change at the cost of one hashing traversal per source.
    auto analytic = DirtyUnitsBetween(base.spec(), next.spec());
    if (analytic.ok()) {
      dirty = std::move(*analytic);
    } else {
      auto base_digests = ComputeUnitDigests(*base.MakeShardedSource());
      auto next_digests = ComputeUnitDigests(*next.MakeShardedSource());
      if (base_digests.ok() && next_digests.ok()) {
        auto diffed = DiffUnitDigests(*base_digests, *next_digests);
        if (diffed.ok()) {
          dirty = std::move(*diffed);
        } else {
          result.fallback_reason = diffed.status().message();
        }
      } else {
        result.fallback_reason = "unit digest pass failed";
      }
    }
  }

  if (result.fallback_reason.empty()) {
    auto base_source = base.MakeShardedSource();
    auto next_source = next.MakeShardedSource();
    auto delta_ann = DeltaAnnotate(*base_source, *next_source,
                                   result.base_annotations, dirty);
    if (delta_ann.ok()) {
      result.annotations = std::move(*delta_ann);
      result.dirty_units = dirty.size();
      result.incremental = true;
      if (cache != nullptr) {
        // Install the lineage link, not the full child arrays: the next
        // version stays loadable (LoadAnnotationsLineage replays the chain)
        // at a fraction of the bytes, and a broken link only ever costs the
        // cold recompute.
        auto delta =
            DiffAnnotations(result.base_annotations, result.annotations);
        if (delta.ok()) {
          delta->dirty_units = result.dirty_units;
          delta->total_units = result.total_units;
          Status s = cache->StoreAnnotationsDelta(
              ScenarioAnnotationKey(next), ScenarioAnnotationKey(base),
              *delta);
          if (!s.ok()) {
            SSUM_LOG(kWarning) << "cache: annotation delta install failed: "
                               << s.ToString();
          }
        }
      }
      return result;
    }
    result.fallback_reason = delta_ann.status().message();
  }

  // Cold fallback: annotate `next` from scratch and install the full arrays
  // (there is no usable lineage to link to).
  auto source = next.MakeShardedSource();
  SSUM_ASSIGN_OR_RETURN(result.annotations, AnnotateSchemaSharded(*source));
  result.dirty_units = result.total_units;
  if (cache != nullptr) {
    if (Status s = cache->StoreAnnotations(ScenarioAnnotationKey(next),
                                           result.annotations);
        !s.ok()) {
      SSUM_LOG(kWarning) << "cache: annotations install failed: "
                         << s.ToString();
    }
  }
  return result;
}

}  // namespace ssum
