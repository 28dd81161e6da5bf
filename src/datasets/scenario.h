#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/config.h"
#include "common/random.h"
#include "common/result.h"
#include "datasets/registry.h"
#include "instance/event_stream.h"
#include "instance/sharded_stream.h"
#include "query/workload.h"
#include "schema/schema_graph.h"
#include "stats/annotate.h"
#include "store/fingerprint.h"

namespace ssum {

class ArtifactCache;  // store/artifact_cache.h

/// Declarative description of a synthetic evaluation scenario: a schema
/// shape, a conforming instance stream, and a query workload — all derived
/// deterministically from one seed. Scenarios generalize the paper's three
/// fixed datasets into an open-ended stress matrix (size, fan-out, depth,
/// Choice/SetOf mix, cardinality skew); case files live in bench/scenarios/
/// and docs/scenarios.md documents the grammar.
///
/// Every field maps 1:1 to a `key: value` line of the config format
/// (common/config.h); SerializeScenarioSpec renders the canonical form,
/// which doubles as the spec's cache identity.
struct ScenarioSpec {
  std::string name = "scenario";
  uint64_t seed = 1;

  // --- schema shape --------------------------------------------------------
  /// Element budget for the generated schema graph (including the root and
  /// the entity-class roots; Choice repair may add a few alternatives).
  uint32_t schema_elements = 200;
  /// Top-level entity classes: SetOf Rcd children of the root, one instance
  /// subtree per unit — the shard boundary of the generated stream.
  uint32_t entity_classes = 8;
  /// Structural depth cap for grown elements (root is depth 0).
  uint32_t max_depth = 8;
  /// Fraction of grown elements that are Simple leaves.
  double simple_fraction = 0.55;
  /// Fraction of grown elements that are Choice groups.
  double choice_fraction = 0.05;
  /// Probability a grown element carries the SetOf wrapper.
  double set_fraction = 0.25;
  /// Parent-pick skew when attaching grown elements: 1 spreads children
  /// uniformly over the interior; larger values concentrate fan-out on the
  /// oldest (shallowest) elements, producing hub-heavy schemas.
  double fanout_skew = 1.0;
  /// Value links added per schema element (0.05 => ~5 links per 100
  /// elements) between non-Simple, non-root endpoints.
  double value_link_fraction = 0.05;

  // --- instance shape ------------------------------------------------------
  /// Total top-level entity instances (units of the sharded stream).
  uint64_t instance_units = 2000;
  /// How units distribute over entity classes: "uniform" (even split) or
  /// "zipf" (class c weighted 1/(c+1)^zipf_s — few huge extents, many
  /// small, the skew of real databases).
  std::string unit_skew = "uniform";
  /// Zipf exponent for unit_skew: zipf (also heavy-tails per-unit set
  /// counts in that mode).
  double zipf_s = 1.1;
  /// Mean SetOf-child count per parent instance (Poisson).
  double set_mean = 3.0;
  /// Probability a single-valued child is present in an instance.
  double presence = 0.9;
  /// Probability each outgoing value link of an entered node emits a
  /// reference instance.
  double reference_prob = 0.5;
  /// Hard node budget per unit subtree — bounds memory and keeps hostile
  /// configs (set_mean^depth blowups) generative rather than explosive.
  uint32_t max_unit_nodes = 4096;

  // --- mutation (version chains) -------------------------------------------
  /// Seeded mutation layer deriving a new *version* of the same scenario: a
  /// chain of specs that keep every base knob fixed and vary only mutate.*
  /// (what `ssum gen --chain` emits). Cardinality perturbation and element
  /// removal leave the schema — and therefore every annotation shape —
  /// unchanged, which is what makes delta-annotation applicable between
  /// versions; added elements change the schema and deliberately key a cold
  /// path (docs/incremental.md).
  uint64_t mutate_seed = 0;
  /// Fraction of units whose set cardinalities are perturbed. 0 = pristine.
  double mutate_fraction = 0.0;
  /// Relative set_mean swing of a perturbed unit: multiplier drawn
  /// uniformly from [1 - amplitude, 1 + amplitude].
  double mutate_amplitude = 0.25;
  /// Extra schema elements grown by the mutation layer (schema change).
  uint32_t mutate_add_elements = 0;
  /// Highest-id Simple leaves whose instances stop being emitted (a
  /// data-level removal; the schema keeps the element, its cardinality
  /// drops toward zero).
  uint32_t mutate_remove_elements = 0;

  // --- workload ------------------------------------------------------------
  uint32_t queries = 40;
  double query_mean_size = 3.0;
  double query_focus = 0.8;
  double query_locality = 0.7;

  // --- bench ---------------------------------------------------------------
  /// Summary size k the scenario bench evaluates at.
  uint32_t summary_k = 8;
  /// Case tier: "quick" cases run in the per-PR CI gate, "full" cases only
  /// in the nightly comprehensive matrix.
  std::string tier = "quick";
};

/// Parses a spec from an already-parsed config, validating ranges and
/// rejecting unknown keys (misspellings fail loudly with line context).
Result<ScenarioSpec> ParseScenarioSpec(const ConfigMap& config);

/// Parses a spec from config text / a case file.
Result<ScenarioSpec> ParseScenarioSpecText(
    std::string_view text, std::string_view source,
    const ParseLimits& limits = ParseLimits::Defaults());
Result<ScenarioSpec> LoadScenarioSpecFile(
    const std::string& path,
    const ParseLimits& limits = ParseLimits::Defaults());

/// Canonical config rendering: fixed key order, normalized numbers. Parsing
/// it back yields an identical spec; the bytes are the spec's cache
/// identity (see ScenarioFingerprint).
std::string SerializeScenarioSpec(const ScenarioSpec& spec);

/// Identity fingerprint of a spec: generator revision + canonical
/// serialization. Stable across runs and processes; any knob change moves
/// the fingerprint, so stale cache entries stop being addressed.
Fingerprint ScenarioFingerprint(const ScenarioSpec& spec);

/// Units whose generated bytes differ between two versions of one scenario
/// — the analytic fast path of incremental annotation (no instance
/// traversal; two Rng draws per unit). Valid only when the specs differ in
/// the mutate seed/fraction/amplitude knobs alone (same schema, same unit
/// count); anything else is InvalidArgument and callers fall back to
/// digest diffing (instance/unit_digest.h), which is always correct.
Result<std::vector<uint64_t>> DirtyUnitsBetween(const ScenarioSpec& base,
                                                const ScenarioSpec& next);

/// A generated scenario dataset: schema graph plus a splittable instance
/// stream, one unit per top-level entity instance. Construction is cheap
/// (schema only); instances are generated on traversal, each unit from its
/// own forked Rng so any sub-range replays without the preceding events —
/// the sharded pass is bit-identical to the serial one at any shard count.
class ScenarioDataset {
 public:
  /// Validates the spec and synthesizes the schema. The spec is re-checked
  /// even when it came from ParseScenarioSpec (defense in depth for
  /// hand-built specs).
  static Result<ScenarioDataset> Make(const ScenarioSpec& spec);

  const ScenarioSpec& spec() const { return spec_; }
  const SchemaGraph& schema() const { return schema_; }

  /// Units of the sharded stream (== spec.instance_units).
  uint64_t NumUnits() const { return class_base_.back(); }

  /// Serial / splittable traversals. The dataset must outlive the stream.
  std::unique_ptr<InstanceStream> MakeStream() const;
  std::unique_ptr<ShardedInstanceSource> MakeShardedSource() const;

  /// Samples the scenario workload. Importance derives from `annotations`
  /// (annotate first, then ask for queries — same shape as LoadScenario).
  Result<Workload> Queries(const Annotations& annotations) const;

 private:
  friend class ScenarioStream;

  ScenarioDataset(ScenarioSpec spec, SchemaGraph schema);

  ScenarioSpec spec_;
  SchemaGraph schema_;
  /// SetOf Rcd children of the root, one per entity class.
  std::vector<ElementId> class_roots_;
  /// Prefix sums of units per class: class c owns global unit indices
  /// [class_base_[c], class_base_[c+1]). Size entity_classes + 1.
  std::vector<uint64_t> class_base_;
  /// Outgoing value links per element (referrer side), in link-id order.
  std::vector<std::vector<LinkId>> vlinks_of_;
  /// Per-element emission suppression (mutate.remove_elements): 1 marks a
  /// Simple leaf whose instances are dropped. Suppressed leaves consume no
  /// Rng draws when emitted, so dropping them leaves every other byte of
  /// the unit untouched.
  std::vector<uint8_t> mutate_suppressed_;
  /// Per-unit set-count multiplier distribution in zipf mode.
  std::unique_ptr<ZipfTable> set_zipf_;
};

/// Generates, annotates (warm-starting from `cache` when non-null, keyed by
/// the scenario fingerprint + schema fingerprint) and packages a scenario
/// as a DatasetBundle, making generated datasets first-class citizens of
/// the registry/cache/serve paths.
Result<DatasetBundle> LoadScenario(const ScenarioSpec& spec,
                                   ArtifactCache* cache = nullptr);

/// LoadScenario from a case file path (the daemon's "scenario:<path>"
/// dataset names and the CLI's `ssum gen --config` both land here).
Result<DatasetBundle> LoadScenarioFile(const std::string& path,
                                       ArtifactCache* cache = nullptr);

/// Outcome of AnnotateScenarioDelta: the next version's Annotations plus
/// everything a caller needs to report *how* they were obtained. The
/// annotations are bit-identical to a full AnnotateSchemaSharded pass over
/// `next` regardless of which path produced them.
struct ScenarioDeltaResult {
  /// Base version's annotations (always produced).
  Annotations base_annotations;
  /// Next version's annotations.
  Annotations annotations;
  /// Units re-walked by the delta pass (== all units on the cold path).
  uint64_t dirty_units = 0;
  uint64_t total_units = 0;
  /// Delta containers replayed to reconstruct the base annotations (0 when
  /// the base was a direct cache hit or computed cold).
  uint32_t lineage_hops = 0;
  /// True when the delta pass ran; false means the cold fallback annotated
  /// `next` from scratch (see fallback_reason).
  bool incremental = false;
  /// Human-readable cause of a cold fallback ("schema changed", ...);
  /// empty when incremental.
  std::string fallback_reason;
};

/// Incremental annotation across two versions of one scenario: obtains the
/// base annotations (cache lineage -> cold compute), derives the dirty-unit
/// set (the analytic DirtyUnitsBetween fast path, else per-unit digest
/// diffing), re-walks only the dirty units (stats/delta.h DeltaAnnotate),
/// and installs the resulting AnnotationDelta in `cache` (may be null) as a
/// lineage link keyed by the *next* version's annotation key — exactly the
/// key LoadScenario uses, so later loads of the next version resolve the
/// chain. Any precondition the delta path cannot meet (different schemas,
/// different unit counts, a failed delta pass) degrades to the cold path;
/// the function only fails when even cold annotation fails.
Result<ScenarioDeltaResult> AnnotateScenarioDelta(const ScenarioDataset& base,
                                                  const ScenarioDataset& next,
                                                  ArtifactCache* cache = nullptr);

}  // namespace ssum
