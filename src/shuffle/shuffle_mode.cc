#include "shuffle/shuffle_mode.h"

namespace swift {

std::string_view ShuffleKindToString(ShuffleKind kind) {
  switch (kind) {
    case ShuffleKind::kDirect:
      return "direct";
    case ShuffleKind::kLocal:
      return "local";
    case ShuffleKind::kRemote:
      return "remote";
  }
  return "?";
}

ShuffleKind SelectShuffleKind(int64_t shuffle_edge_size) {
  if (shuffle_edge_size < kDirectShuffleMaxEdges) return ShuffleKind::kDirect;
  if (shuffle_edge_size >= kLocalShuffleMinEdges) return ShuffleKind::kLocal;
  return ShuffleKind::kRemote;
}

int64_t DirectShuffleConnections(int64_t producers, int64_t consumers) {
  return producers * consumers;
}

int64_t LocalShuffleConnections(int64_t producers, int64_t consumers,
                                int64_t machines) {
  return producers + consumers + machines * (machines - 1) / 2;
}

int64_t RemoteShuffleConnections(int64_t producers, int64_t consumers,
                                 int64_t machines) {
  return producers + consumers * machines;
}

int64_t ShuffleConnections(ShuffleKind kind, int64_t producers,
                           int64_t consumers, int64_t machines) {
  switch (kind) {
    case ShuffleKind::kDirect:
      return DirectShuffleConnections(producers, consumers);
    case ShuffleKind::kLocal:
      return LocalShuffleConnections(producers, consumers, machines);
    case ShuffleKind::kRemote:
      return RemoteShuffleConnections(producers, consumers, machines);
  }
  return 0;
}

int ExtraMemoryCopies(ShuffleKind kind) {
  switch (kind) {
    case ShuffleKind::kDirect:
      return 0;
    case ShuffleKind::kLocal:
      return 2;
    case ShuffleKind::kRemote:
      return 1;
  }
  return 0;
}

}  // namespace swift
