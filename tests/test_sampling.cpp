// Adaptive object sampling: gap derivation, nX rates, array amortization,
// resampling, Horvitz-Thompson estimates, and statistical uniformity.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "common/primes.hpp"
#include "common/rng.hpp"
#include "dsm/gos.hpp"
#include "profiling/sampling.hpp"

#include "sampling_helpers.hpp"

namespace djvm {
namespace {

class SamplingTest : public ::testing::Test {
 protected:
  KlassRegistry reg;
  Heap heap{reg, 2};
  SamplingPlan plan{heap};
};

TEST_F(SamplingTest, RateZeroMeansFullSampling) {
  const ClassId c = reg.register_class("X", 64);
  plan.set_rate(c, 0);
  EXPECT_EQ(plan.real_gap(c), 1u);
  const ObjectId o = heap.alloc(c, 0);
  plan.on_alloc(o);
  EXPECT_TRUE(plan.is_sampled(o));
}

TEST_F(SamplingTest, NominalGapForRateFormula) {
  // gap = page / (size * n): 64-byte class at 1X -> 4096/64 = 64.
  EXPECT_EQ(SamplingPlan::nominal_gap_for_rate(64, 1), 64u);
  EXPECT_EQ(SamplingPlan::nominal_gap_for_rate(64, 4), 16u);
  EXPECT_EQ(SamplingPlan::nominal_gap_for_rate(64, 64), 1u);
  // Objects larger than a page: gap clamps to 1 (every object sampled) —
  // the reason SOR's KB-sized rows always run at effectively full sampling.
  EXPECT_EQ(SamplingPlan::nominal_gap_for_rate(8192, 1), 1u);
}

TEST_F(SamplingTest, RealGapIsNearestPrime) {
  const ClassId c = reg.register_class("X", 64);
  plan.set_rate(c, 1);  // nominal 64
  EXPECT_EQ(plan.nominal_gap(c), 64u);
  EXPECT_EQ(plan.real_gap(c), 67u);  // paper's example: 64 -> 67
  plan.set_rate(c, 2);  // nominal 32
  EXPECT_EQ(plan.real_gap(c), 31u);
}

TEST_F(SamplingTest, HalveGapSaturatesAtFullSampling) {
  const ClassId c = reg.register_class("X", 8);
  plan.set_nominal_gap(c, 128);
  EXPECT_EQ(plan.real_gap(c), 127u);
  plan.halve_gap(c);
  EXPECT_EQ(plan.nominal_gap(c), 64u);
  EXPECT_EQ(plan.real_gap(c), 67u);
  // Halving saturates at full sampling.
  for (int i = 0; i < 10; ++i) plan.halve_gap(c);
  EXPECT_EQ(plan.real_gap(c), 1u);
}

TEST_F(SamplingTest, ScalarSampledIffSeqDivisible) {
  const ClassId c = reg.register_class("X", 8);
  plan.set_nominal_gap(c, 3);  // real gap 3
  ASSERT_EQ(plan.real_gap(c), 3u);
  int sampled = 0;
  for (int i = 0; i < 30; ++i) {
    const ObjectId o = heap.alloc(c, 0);
    plan.on_alloc(o);
    const bool expect = heap.meta(o).start_seq % 3 == 0;
    EXPECT_EQ(plan.is_sampled(o), expect);
    sampled += plan.is_sampled(o);
  }
  EXPECT_EQ(sampled, 10);
}

TEST_F(SamplingTest, SampledElementsCountsMultiplesInRange) {
  // Fig. 3(b): arrays starting at arbitrary sequence numbers.
  EXPECT_EQ(SamplingPlan::sampled_elements(1, 4, 3), 1u);    // {3}
  EXPECT_EQ(SamplingPlan::sampled_elements(5, 5, 3), 2u);    // {6, 9}
  EXPECT_EQ(SamplingPlan::sampled_elements(10, 3, 3), 1u);   // {12}
  EXPECT_EQ(SamplingPlan::sampled_elements(1, 4, 7), 0u);    // none in 1..4
  EXPECT_EQ(SamplingPlan::sampled_elements(1, 12, 1), 12u);  // full sampling
}

TEST_F(SamplingTest, ArraySampledIffAnyElementSampled) {
  const ClassId c = reg.register_array_class("A[]", 4);
  plan.set_nominal_gap(c, 7);  // real gap 7
  ASSERT_EQ(plan.real_gap(c), 7u);
  // First array: seqs 1..4 -> no multiple of 7 -> unsampled.
  const ObjectId a = heap.alloc_array(c, 0, 4);
  plan.on_alloc(a);
  EXPECT_FALSE(plan.is_sampled(a));
  EXPECT_EQ(plan.sample_bytes(a), 0u);
  // Second array: seqs 5..14 -> {7, 14} -> sampled, amortized 2 elements.
  const ObjectId b = heap.alloc_array(c, 0, 10);
  plan.on_alloc(b);
  EXPECT_TRUE(plan.is_sampled(b));
  EXPECT_EQ(plan.sample_bytes(b), 2u * 4u);
}

TEST_F(SamplingTest, AmortizedBytesNotWholeArray) {
  // The array-bias fix: a sampled large array logs only its sampled
  // elements' bytes, not its full size.
  const ClassId c = reg.register_array_class("A[]", 8);
  plan.set_nominal_gap(c, 31);
  const ObjectId big = heap.alloc_array(c, 0, 3100);
  plan.on_alloc(big);
  ASSERT_TRUE(plan.is_sampled(big));
  EXPECT_EQ(plan.sample_bytes(big), 100u * 8u);
  EXPECT_LT(plan.sample_bytes(big), heap.meta(big).size_bytes);
}

TEST_F(SamplingTest, EstimatedFullBytesReconstructsArraySize) {
  const ClassId c = reg.register_array_class("A[]", 8);
  plan.set_nominal_gap(c, 31);
  const ObjectId a = heap.alloc_array(c, 0, 3100);
  plan.on_alloc(a);
  const double est = static_cast<double>(plan.estimated_full_bytes(a));
  const double real = static_cast<double>(heap.meta(a).size_bytes);
  EXPECT_NEAR(est / real, 1.0, 0.05);
}

TEST_F(SamplingTest, EstimatedFullBytesScalarHtWeight) {
  const ClassId c = reg.register_class("X", 40);
  plan.set_nominal_gap(c, 5);
  ASSERT_EQ(plan.real_gap(c), 5u);
  for (int i = 0; i < 5; ++i) {
    const ObjectId o = heap.alloc(c, 0);
    plan.on_alloc(o);
    if (plan.is_sampled(o)) {
      EXPECT_EQ(plan.estimated_full_bytes(o), 40u * 5u);
    } else {
      EXPECT_EQ(plan.estimated_full_bytes(o), 0u);
    }
  }
}

TEST_F(SamplingTest, GapChangeTakesEffectAtOnce) {
  const ClassId c = reg.register_class("X", 8);
  plan.set_nominal_gap(c, 4);
  for (int i = 0; i < 100; ++i) plan.on_alloc(heap.alloc(c, 0));
  const std::uint64_t before = count_sampled(plan);
  plan.set_nominal_gap(c, 2);
  // No resample yet: the answers already follow the tighter gap...
  EXPECT_GT(count_sampled(plan), before);
  // ...and the change notice only bills the walk (the home pays each
  // visit when no copy view is registered).
  EXPECT_EQ(plan.resample_classes({c}), 100u);
  EXPECT_EQ(plan.drain_resampled_by_node(), std::vector<std::uint64_t>{100});
}

TEST_F(SamplingTest, ResampleClassTouchesOnlyThatClass) {
  const ClassId x = reg.register_class("X", 8);
  const ClassId y = reg.register_class("Y", 8);
  for (int i = 0; i < 10; ++i) {
    plan.on_alloc(heap.alloc(x, 0));
    plan.on_alloc(heap.alloc(y, 0));
  }
  EXPECT_EQ(plan.resample_classes({x}), 10u);
  EXPECT_EQ(plan.resample_all(), 20u);
}

TEST_F(SamplingTest, GapOfOutOfRangeReportsUnsampled) {
  const ClassId c = reg.register_class("X", 8);
  plan.set_nominal_gap(c, 4);
  const ObjectId o = heap.alloc(c, 0);
  plan.on_alloc(o);
  EXPECT_EQ(plan.gap_of(o), plan.real_gap(c));
  // Boundary: objects the plan has never registered are *unsampled* (gap 0).
  // The old fallback of 1 read as sampled-every-access, inflating any
  // Horvitz-Thompson estimate built from a bogus entry by 1/gap.
  EXPECT_EQ(plan.gap_of(o + 1), 0u);
  EXPECT_EQ(plan.gap_of(kInvalidObject), 0u);
  EXPECT_FALSE(plan.is_sampled(o + 1));
  EXPECT_EQ(plan.sample_bytes(o + 1), 0u);
  EXPECT_EQ(plan.estimated_full_bytes(o + 1), 0u);
}

TEST_F(SamplingTest, NodeAnswerTracksTheNodesEffectiveGap) {
  const ClassId c = reg.register_class("X", 8);
  plan.set_nominal_gap(c, 4);
  // Homed at node 1: with no copy view registered, the per-node resampling
  // walk falls back to exactly the objects a node homes.
  std::vector<ObjectId> objs;
  for (int i = 0; i < 30; ++i) {
    objs.push_back(heap.alloc(c, 1));
    plan.on_alloc(objs.back());
  }
  // Without a shift, node queries fall through to the cluster view.
  for (ObjectId o : objs) {
    EXPECT_EQ(plan.is_sampled(1, o), plan.is_sampled(o));
    EXPECT_EQ(plan.gap_of(1, o), plan.gap_of(o));
  }

  plan.set_node_gap_shift(1, c, 2);
  plan.resample_classes_on_node(1, {c});
  const std::uint32_t shifted = plan.effective_real_gap(1, c);
  for (ObjectId o : objs) {
    const std::uint32_t seq = heap.meta(o).start_seq;
    // Node 1's copies sample under its shifted gap...
    EXPECT_EQ(plan.is_sampled(1, o), seq % shifted == 0);
    EXPECT_EQ(plan.gap_of(1, o), shifted);
    EXPECT_EQ(plan.sample_bytes(1, o), seq % shifted == 0 ? 8u : 0u);
    // ...while the cluster view (and any unshifted node) is untouched.
    EXPECT_EQ(plan.is_sampled(o), seq % plan.real_gap(c) == 0);
    EXPECT_EQ(plan.is_sampled(0, o), plan.is_sampled(o));
  }
}

TEST_F(SamplingTest, NodeAnswerAmortizesArraysUnderShiftedGap) {
  const ClassId c = reg.register_array_class("A[]", 4);
  plan.set_nominal_gap(c, 4);
  const ObjectId a = heap.alloc_array(c, 1, 100);
  plan.on_alloc(a);
  plan.set_node_gap_shift(1, c, 3);  // 4 << 3 = 32 -> prime 31
  plan.resample_classes_on_node(1, {c});
  ASSERT_EQ(plan.effective_real_gap(1, c), 31u);
  const std::uint32_t n = SamplingPlan::sampled_elements(
      heap.meta(a).start_seq, 100, 31);
  EXPECT_EQ(plan.sample_bytes(1, a), n * 4u);
  EXPECT_GT(plan.sample_bytes(a), plan.sample_bytes(1, a));
}

TEST_F(SamplingTest, PlanTagsPreexistingObjectsAtConstruction) {
  KlassRegistry reg2;
  Heap heap2(reg2, 1);
  const ClassId c = reg2.register_class("X", 8);
  const ObjectId o = heap2.alloc(c, 0);
  SamplingPlan plan2(heap2);  // object allocated before the plan existed
  EXPECT_TRUE(plan2.is_sampled(o));
}

// --- statistical properties -------------------------------------------------

// HT-estimated total bytes over a large scalar population should match the
// true total within a few percent at any prime gap.
class HtEstimateSweep : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(HtEstimateSweep, UnbiasedTotalEstimate) {
  KlassRegistry reg;
  Heap heap(reg, 1);
  SamplingPlan plan(heap);
  const ClassId c = reg.register_class("X", 64);
  plan.set_nominal_gap(c, GetParam());
  const int n = 200000;
  double est = 0.0;
  for (int i = 0; i < n; ++i) {
    const ObjectId o = heap.alloc(c, 0);
    plan.on_alloc(o);
    est += static_cast<double>(plan.estimated_full_bytes(o));
  }
  const double real = 64.0 * n;
  EXPECT_NEAR(est / real, 1.0, 0.02) << "gap=" << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Gaps, HtEstimateSweep,
                         ::testing::Values(2, 4, 8, 16, 32, 64, 128, 256, 512));

// Sampled sequence numbers must spread uniformly over the allocation order —
// the property the prime gap protects under cyclic allocation.
TEST(SamplingUniformity, SampledObjectsSpreadOverAllocationOrder) {
  KlassRegistry reg;
  Heap heap(reg, 1);
  SamplingPlan plan(heap);
  const ClassId c = reg.register_class("X", 64);
  plan.set_nominal_gap(c, 64);  // real 67
  const int n = 67 * 300;
  std::vector<int> deciles(10, 0);
  for (int i = 0; i < n; ++i) {
    const ObjectId o = heap.alloc(c, 0);
    plan.on_alloc(o);
    if (plan.is_sampled(o)) ++deciles[static_cast<std::size_t>(i * 10LL / n)];
  }
  for (int d = 0; d < 10; ++d) EXPECT_NEAR(deciles[d], 30, 2) << "decile " << d;
}

// --- property: every answer and every bill against a from-metadata oracle --

/// A small cluster with a GOS (so copy sets exist and the walks bill the
/// caching nodes), one thread per node, and scalars and arrays of three
/// classes homed round-robin.  The test keeps its own model of the gap
/// configuration (`nominal`, `shift`) and derives every expected answer from
/// it and the object's metadata alone.
class PropertyWorld {
 public:
  static constexpr std::uint32_t kNodes = 4;

  PropertyWorld(CostAttribution attr, std::uint64_t seed) : rng_(seed) {
    cfg_.nodes = kNodes;
    cfg_.threads = kNodes;
    cfg_.oal_transfer = OalTransfer::kDisabled;
    heap_ = std::make_unique<Heap>(reg_, kNodes);
    plan_ = std::make_unique<SamplingPlan>(*heap_);
    plan_->set_cost_attribution(attr);
    net_ = std::make_unique<Network>(cfg_.costs);
    gos_ = std::make_unique<Gos>(*heap_, *net_, *plan_, cfg_);
    for (NodeId n = 0; n < kNodes; ++n) gos_->spawn_thread(n);
    classes_ = {reg_.register_class("S16", 16), reg_.register_class("S64", 64),
                reg_.register_array_class("A8[]", 8)};
    nominal_.assign(classes_.size(), 0);
    for (std::size_t c = 0; c < classes_.size(); ++c) set_gap(c, 1 + rng_.next_below(16));
    shift_.assign(kNodes, std::vector<std::uint32_t>(classes_.size(), 0));
    for (int i = 0; i < 150; ++i) {
      const ClassId k = classes_[rng_.next_below(classes_.size())];
      const auto home = static_cast<NodeId>(i % kNodes);
      if (reg_.at(k).is_array) {
        gos_->alloc_array(k, home, 1 + static_cast<std::uint32_t>(rng_.next_below(40)));
      } else {
        gos_->alloc(k, home);
      }
    }
  }

  /// One random step: a gap or shift change paired with the resample call
  /// the governor makes for it, a fault-in, or a home migration.  Checks
  /// the step's bill against a brute-force count over the copy sets.
  void step() {
    (void)plan_->drain_resampled_by_node();
    const std::size_t c = rng_.next_below(classes_.size());
    const auto node = static_cast<NodeId>(rng_.next_below(kNodes));
    switch (rng_.next_below(6)) {
      case 0: {  // back_off / enter_sentinel / restore_converged_gaps
        set_gap(c, 1 + rng_.next_below(64));
        check_bill(plan_->resample_classes({classes_[c]}), cluster_bill({c}));
        break;
      }
      case 1: {  // tighten
        plan_->halve_gap(classes_[c]);
        nominal_[c] = std::max<std::uint32_t>(1, nominal_[c] / 2);
        check_bill(plan_->resample_classes({classes_[c]}), cluster_bill({c}));
        break;
      }
      case 2: {  // back_off_node / relax_node_shifts
        const auto s = static_cast<std::uint32_t>(rng_.next_below(4));
        plan_->set_node_gap_shift(node, classes_[c], s);
        shift_[node][c] = s;
        check_bill(plan_->resample_classes_on_node(node, {classes_[c]}),
                   node_bill(node, c));
        break;
      }
      case 3: {  // reset_controller_state
        std::vector<std::size_t> affected;
        for (std::size_t k = 0; k < classes_.size(); ++k) {
          for (NodeId n = 0; n < kNodes; ++n) {
            if (shift_[n][k] != 0) {
              affected.push_back(k);
              break;
            }
          }
        }
        plan_->clear_node_gap_shifts();
        for (auto& row : shift_) std::fill(row.begin(), row.end(), 0u);
        std::vector<ClassId> ids;
        for (std::size_t k : affected) ids.push_back(classes_[k]);
        check_bill(plan_->resample_classes(ids), cluster_bill(affected));
        break;
      }
      case 4: {  // fault-in (a no-op when the node already holds the copy)
        gos_->read(static_cast<ThreadId>(node), random_object());
        check_bill(0, std::vector<std::uint64_t>(kNodes, 0));
        break;
      }
      default: {  // home migration: the new home pays one re-key visit
        const ObjectId o = random_object();
        const NodeId from = heap_->meta(o).home;
        gos_->migrate_homes({&o, 1}, node);
        std::vector<std::uint64_t> want(kNodes, 0);
        if (from != node) want[node] = 1;
        check_bill(static_cast<std::size_t>(want[node]), want);
        break;
      }
    }
  }

  /// Every cluster answer, and every node answer for a copy the node holds,
  /// equals the oracle's.
  void check_answers() const {
    for (ObjectId o = 0; o < heap_->object_count(); ++o) {
      expect_answer(kInvalidNode, o);
      for (NodeId n = 0; n < kNodes; ++n) {
        if (gos_->node_has_copy(n, o)) expect_answer(n, o);
      }
    }
    const ObjectId past = heap_->object_count();
    EXPECT_FALSE(plan_->is_sampled(past));
    EXPECT_EQ(plan_->gap_of(0, past), 0u);
  }

 private:
  void set_gap(std::size_t c, std::uint64_t nominal) {
    nominal_[c] = static_cast<std::uint32_t>(nominal);
    plan_->set_nominal_gap(classes_[c], nominal_[c]);
  }

  ObjectId random_object() { return rng_.next_below(heap_->object_count()); }

  std::size_t class_index(ClassId k) const {
    return static_cast<std::size_t>(
        std::find(classes_.begin(), classes_.end(), k) - classes_.begin());
  }

  /// The real gap `reader` samples class `c` under (kInvalidNode: no shift).
  std::uint32_t oracle_gap(NodeId reader, std::size_t c) const {
    std::uint64_t nominal = nominal_[c];
    if (reader < kNodes && shift_[reader][c] != 0) {
      nominal = std::min<std::uint64_t>(nominal << shift_[reader][c], 1u << 24);
    }
    return nominal <= 1 ? 1 : static_cast<std::uint32_t>(nearest_prime(nominal));
  }

  void expect_answer(NodeId reader, ObjectId o) const {
    const ObjectMeta& m = heap_->meta(o);
    const Klass& k = reg_.at(m.klass);
    const NodeId owner =
        plan_->cost_attribution() == CostAttribution::kHomeNode ? m.home : reader;
    const std::uint32_t gap = oracle_gap(owner, class_index(m.klass));
    std::uint32_t hits = 0;  // sequence numbers the object owns that divide
    for (std::uint32_t i = 0; i < m.length; ++i) hits += (m.start_seq + i) % gap == 0;
    const std::uint32_t bytes = k.is_array ? hits * k.instance_size
                                           : (hits > 0 ? m.size_bytes : 0u);
    if (reader == kInvalidNode) {
      EXPECT_EQ(plan_->is_sampled(o), hits > 0) << "object " << o;
      EXPECT_EQ(plan_->sample_bytes(o), bytes) << "object " << o;
      EXPECT_EQ(plan_->gap_of(o), gap) << "object " << o;
    } else {
      EXPECT_EQ(plan_->is_sampled(reader, o), hits > 0) << "node " << reader << " object " << o;
      EXPECT_EQ(plan_->sample_bytes(reader, o), bytes) << "node " << reader << " object " << o;
      EXPECT_EQ(plan_->gap_of(reader, o), gap) << "node " << reader << " object " << o;
    }
  }

  /// Brute-force bill of a cluster resample of classes `cs`: one visit per
  /// (caching node, object), the home when nobody caches it, and always the
  /// home under the home-node model.
  std::vector<std::uint64_t> cluster_bill(const std::vector<std::size_t>& cs) const {
    std::vector<std::uint64_t> bill(kNodes, 0);
    for (ObjectId o = 0; o < heap_->object_count(); ++o) {
      const ObjectMeta& m = heap_->meta(o);
      if (std::find(cs.begin(), cs.end(), class_index(m.klass)) == cs.end()) continue;
      bool cached = false;
      if (plan_->cost_attribution() == CostAttribution::kCachedCopy) {
        for (NodeId n = 0; n < kNodes; ++n) {
          if (gos_->node_has_copy(n, o)) {
            ++bill[n];
            cached = true;
          }
        }
      }
      if (!cached) ++bill[m.home];
    }
    return bill;
  }

  /// Brute-force bill of `node`'s walk over class `c`: the copies it holds
  /// (the objects it homes, under the home-node model).
  std::vector<std::uint64_t> node_bill(NodeId node, std::size_t c) const {
    std::vector<std::uint64_t> bill(kNodes, 0);
    for (ObjectId o = 0; o < heap_->object_count(); ++o) {
      const ObjectMeta& m = heap_->meta(o);
      if (class_index(m.klass) != c) continue;
      const bool walks = plan_->cost_attribution() == CostAttribution::kCachedCopy
                             ? gos_->node_has_copy(node, o)
                             : m.home == node;
      bill[node] += walks ? 1 : 0;
    }
    return bill;
  }

  void check_bill(std::size_t visited, const std::vector<std::uint64_t>& want) {
    std::vector<std::uint64_t> got = plan_->drain_resampled_by_node();
    got.resize(kNodes, 0);
    EXPECT_EQ(got, want);
    std::uint64_t total = 0;
    for (std::uint64_t v : want) total += v;
    EXPECT_EQ(visited, total);
  }

  Config cfg_;
  KlassRegistry reg_;
  std::unique_ptr<Heap> heap_;
  std::unique_ptr<SamplingPlan> plan_;
  std::unique_ptr<Network> net_;
  std::unique_ptr<Gos> gos_;
  SplitMix64 rng_;
  std::vector<ClassId> classes_;
  std::vector<std::uint32_t> nominal_;
  std::vector<std::vector<std::uint32_t>> shift_;
};

TEST(SamplingProperty, AnswersAndBillsMatchOracle) {
  for (const CostAttribution attr : {CostAttribution::kCachedCopy, CostAttribution::kHomeNode}) {
    for (const std::uint64_t seed : {1ull, 7ull, 42ull, 987654321ull}) {
      SCOPED_TRACE(::testing::Message()
                   << (attr == CostAttribution::kHomeNode ? "home-node" : "cached-copy")
                   << " seed " << seed);
      PropertyWorld w(attr, seed);
      w.check_answers();
      for (int i = 0; i < 300 && !::testing::Test::HasFailure(); ++i) {
        w.step();
        w.check_answers();
      }
    }
  }
}

}  // namespace
}  // namespace djvm
