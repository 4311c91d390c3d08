#ifndef SWIFT_SHUFFLE_SHUFFLE_MODE_H_
#define SWIFT_SHUFFLE_SHUFFLE_MODE_H_

#include <cstdint>
#include <string_view>

namespace swift {

/// \brief The three in-network shuffle schemes of Sec. III-B (Fig. 5).
enum class ShuffleKind : int {
  kDirect = 0,  ///< producer task -> consumer task, M*N connections
  kLocal = 1,   ///< via Cache Workers on both sides, M+N+C(Y,2) connections
  kRemote = 2,  ///< writer-side Cache Worker only, M+N*Y connections
};

std::string_view ShuffleKindToString(ShuffleKind kind);

/// \brief The production thresholds the paper reports: Direct below
/// 10,000 shuffle edges, Local from 90,000, Remote in between.
inline constexpr int64_t kDirectShuffleMaxEdges = 10000;
inline constexpr int64_t kLocalShuffleMinEdges = 90000;

/// \brief Adaptive selection by shuffle edge size (M*N, "the number of
/// edges between all source stage tasks and the sink ones").
ShuffleKind SelectShuffleKind(int64_t shuffle_edge_size);

/// \brief TCP connections Direct Shuffle establishes: M*N.
int64_t DirectShuffleConnections(int64_t producers, int64_t consumers);

/// \brief TCP connections Local Shuffle establishes: M + N + C(Y,2)
/// (each task talks to its local Cache Worker; Cache Workers form at
/// most a clique over the Y machines).
int64_t LocalShuffleConnections(int64_t producers, int64_t consumers,
                                int64_t machines);

/// \brief TCP connections Remote Shuffle establishes: M + N*Y (writers
/// to local Cache Worker; each consumer pulls from up to Y workers).
int64_t RemoteShuffleConnections(int64_t producers, int64_t consumers,
                                 int64_t machines);

/// \brief Connections for `kind` (dispatch helper).
int64_t ShuffleConnections(ShuffleKind kind, int64_t producers,
                           int64_t consumers, int64_t machines);

/// \brief Extra in-memory copies relative to Direct (Sec. III-B): Direct
/// 0, Remote 1, Local 2.
int ExtraMemoryCopies(ShuffleKind kind);

}  // namespace swift

#endif  // SWIFT_SHUFFLE_SHUFFLE_MODE_H_
