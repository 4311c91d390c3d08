#ifndef SWIFT_SCHEDULER_FAIR_SHARE_H_
#define SWIFT_SCHEDULER_FAIR_SHARE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace swift {

/// \brief Fair-share knobs shared by the admission queue and the gang
/// arbiter (DESIGN.md Sec. 16).
struct FairShareConfig {
  /// Relative share of tenants not listed defaults to `default_weight`.
  std::map<std::string, double> tenant_weights;
  double default_weight = 1.0;
  /// Each priority class multiplies the effective weight by this factor,
  /// so a class-1 job is charged half the virtual time of a class-0 job
  /// of the same tenant (with the default boost of 2).
  double priority_boost = 2.0;
};

/// \brief Weighted fair queuing over tenants with strict priority
/// ordering within a tenant.
///
/// Each tenant carries a virtual time that advances by
/// `cost / (weight * boost^priority)` whenever it is served; the tenant
/// with the smallest virtual time is served next, so over any saturated
/// interval tenants receive service proportional to their weights
/// ("start-time fair queuing"). A tenant that was idle has its virtual
/// time caught up to the global virtual clock on activation, which is
/// what prevents idle tenants from banking unbounded credit and then
/// starving everyone else.
///
/// Selection is a deterministic three-step rule, not a comparator sort
/// (avoids transitivity traps when mixing cross-tenant virtual time with
/// in-tenant priority):
///   1. tenant with minimum virtual time (tie: smaller tenant name);
///   2. within that tenant, highest priority class;
///   3. within that class, lowest sequence number (FIFO).
///
/// Not thread-safe: callers serialize access under their own mutex.
class FairSharePolicy {
 public:
  /// One schedulable unit waiting for service.
  struct Entry {
    std::string tenant;
    int priority = 0;  ///< clamped to [0, 8]
    uint64_t seq = 0;  ///< admission order, from NextSeq()
  };

  explicit FairSharePolicy(FairShareConfig config = {});

  /// \brief A tenant gained pending work: ensure it exists and catch its
  /// virtual time up to the global virtual clock if it was behind.
  void Activate(const std::string& tenant);

  /// \brief Charge `cost` units of service against `tenant` at the given
  /// priority; advances the tenant's virtual time and the global clock.
  void Charge(const std::string& tenant, int priority, double cost);

  /// \brief Current virtual time (0 for a never-seen tenant).
  double VirtualTime(const std::string& tenant) const;

  /// \brief Index of the entry to serve next (see class comment).
  /// `entries` must be non-empty.
  std::size_t PickIndex(const std::vector<Entry>& entries) const;

  /// \brief Monotonic sequence numbers for FIFO tie-breaking.
  uint64_t NextSeq() { return next_seq_++; }

  double EffectiveWeight(const std::string& tenant, int priority) const;

 private:
  FairShareConfig config_;
  std::map<std::string, double> virtual_time_;
  /// Virtual time at which the most recent service started; activation
  /// floor for returning tenants.
  double global_virtual_time_ = 0.0;
  uint64_t next_seq_ = 0;
};

/// \brief Clamps a priority class to the supported [0, 8] range.
int ClampPriority(int priority);

}  // namespace swift

#endif  // SWIFT_SCHEDULER_FAIR_SHARE_H_
