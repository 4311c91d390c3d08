#include "common/compress.h"

#include <cstring>
#include <vector>

#include "common/crc32.h"

namespace swift {
namespace {

// --- Little-endian primitives ------------------------------------------
// Matches the serde convention (exec/serde.cc): memcpy-based so the code
// is endian-portable and alignment-safe.

uint32_t Load32(const uint8_t* p) {
  uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

uint64_t Load64(const uint8_t* p) {
  uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

void Store16(uint8_t* p, uint16_t v) { std::memcpy(p, &v, sizeof(v)); }
void Store32(uint8_t* p, uint32_t v) { std::memcpy(p, &v, sizeof(v)); }
void Store64(uint8_t* p, uint64_t v) { std::memcpy(p, &v, sizeof(v)); }

uint16_t Read16(const uint8_t* p) {
  uint16_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}
uint32_t Read32(const uint8_t* p) { return Load32(p); }
uint64_t Read64(const uint8_t* p) {
  uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

// --- Match-finder parameters -------------------------------------------

// 2^13 hash heads: at 64-KiB blocks each head averages 8 positions, and
// the chain walk below caps how many of those are actually probed.
constexpr int kHashBits = 15;
constexpr std::size_t kHashSize = std::size_t{1} << kHashBits;
// Bounded hash-chain depth: greedy parse quality plateaus quickly and
// the compress >= 300 MB/s budget (ISSUE 10) rules out deep walks.
constexpr int kMaxChainDepth = 3;
// LZ4 end conditions: a match may not start within the last 12 bytes of
// the block and may not extend into the last 5 (the final sequence is
// literal-only), which is what lets the decoder copy without per-byte
// end checks on the hot path.
constexpr std::size_t kMatchStartMargin = 12;
constexpr std::size_t kLastLiterals = 5;
constexpr std::size_t kMinMatch = 4;
// Skip acceleration over incompressible runs: after 2^kSkipTrigger
// failed probes the search stride starts growing, so random input scans
// at far better than one probe per byte.
constexpr unsigned kSkipTrigger = 6;
constexpr std::size_t kAcceptLen = 12;

uint32_t HashPos(uint32_t word) {
  // Fibonacci multiplicative hash of the 4 leading bytes.
  return (word * 2654435761u) >> (32 - kHashBits);
}

// Length of the common prefix of src[a..] and src[b..], capped so the
// match never crosses `limit`. 8 bytes per iteration via XOR + count
// trailing zeros; this is the compressor's hottest loop.
std::size_t MatchLength(const uint8_t* src, std::size_t a, std::size_t b,
                        std::size_t limit) {
  std::size_t len = 0;
  const std::size_t max_len = limit - b;
  while (len + 8 <= max_len) {
    const uint64_t diff = Load64(src + a + len) ^ Load64(src + b + len);
    if (diff != 0) {
      return len + (static_cast<std::size_t>(__builtin_ctzll(diff)) >> 3);
    }
    len += 8;
  }
  while (len < max_len && src[a + len] == src[b + len]) ++len;
  return len;
}

// Writes a length in the LZ4 255-run extension format.
std::size_t PutRunLength(uint8_t* dst, std::size_t len) {
  std::size_t n = 0;
  while (len >= 255) {
    dst[n++] = 255;
    len -= 255;
  }
  dst[n++] = static_cast<uint8_t>(len);
  return n;
}

struct MatchTables {
  std::vector<int32_t> head;
  std::vector<int32_t> chain;
};

// Scratch tables are reused across calls; a shuffle writer compresses
// many partitions back to back and the ~288 KiB allocation would
// otherwise dominate small-block cost.
MatchTables& Tables() {
  thread_local MatchTables t;
  if (t.head.empty()) {
    t.head.resize(kHashSize);
    t.chain.resize(kCompressBlockSize);
  }
  return t;
}

}  // namespace

std::size_t CompressBlock(const uint8_t* src, std::size_t src_len,
                          uint8_t* dst) {
  if (src_len > kCompressBlockSize) return 0;
  if (src_len < kMatchStartMargin + kMinMatch) return 0;  // too small to win
  MatchTables& t = Tables();
  std::fill(t.head.begin(), t.head.end(), -1);
  int32_t* head = t.head.data();
  int32_t* chain = t.chain.data();

  const std::size_t mflimit = src_len - kMatchStartMargin;
  const std::size_t matchlimit = src_len - kLastLiterals;
  std::size_t ip = 0;
  std::size_t anchor = 0;
  std::size_t op = 0;
  unsigned search_count = 1u << kSkipTrigger;

  auto emit = [&](std::size_t match_pos, std::size_t match_len) -> bool {
    const std::size_t lit_len = ip - anchor;
    // Worst-case sequence size; bail (store raw) rather than overrun.
    if (op + 1 + lit_len / 255 + 1 + lit_len + 2 + match_len / 255 + 1 >
        src_len) {
      return false;
    }
    const std::size_t token_at = op++;
    uint8_t token = 0;
    if (lit_len >= 15) {
      token = 15u << 4;
      op += PutRunLength(dst + op, lit_len - 15);
    } else {
      token = static_cast<uint8_t>(lit_len << 4);
    }
    std::memcpy(dst + op, src + anchor, lit_len);
    op += lit_len;
    Store16(dst + op, static_cast<uint16_t>(ip - match_pos));
    op += 2;
    const std::size_t ml = match_len - kMinMatch;
    if (ml >= 15) {
      token |= 15;
      op += PutRunLength(dst + op, ml - 15);
    } else {
      token |= static_cast<uint8_t>(ml);
    }
    dst[token_at] = token;
    return true;
  };

  while (ip < mflimit) {
    const uint32_t word = Load32(src + ip);
    const uint32_t h = HashPos(word);
    std::size_t best_len = 0;
    std::size_t best_pos = 0;
    int32_t cand = head[h];
    for (int depth = 0; cand >= 0 && depth < kMaxChainDepth;
         ++depth, cand = chain[cand]) {
      const std::size_t pos = static_cast<std::size_t>(cand);
      // Only candidates that can beat the current best are worth a full
      // extension: check the byte just past best_len first, then the
      // leading word.
      if (best_len > 0 && (ip + best_len >= matchlimit ||
                           src[pos + best_len] != src[ip + best_len])) {
        continue;
      }
      if (Load32(src + pos) != word) continue;
      const std::size_t len = kMinMatch +
          MatchLength(src, pos + kMinMatch, ip + kMinMatch, matchlimit);
      if (len > best_len) {
        best_len = len;
        best_pos = pos;
        if (len >= kAcceptLen) break;  // long enough: extra probes cannot pay
      }
    }
    chain[ip] = head[h];
    head[h] = static_cast<int32_t>(ip);

    if (best_len >= kMinMatch) {
      if (!emit(best_pos, best_len)) return 0;
      // Seed the table at the match tail only (the LZ4 trick): one
      // insert keeps runs findable without an O(match_len) loop.
      if (best_len > 2 && ip + best_len - 2 < mflimit) {
        const std::size_t p = ip + best_len - 2;
        const uint32_t ph = HashPos(Load32(src + p));
        chain[p] = head[ph];
        head[ph] = static_cast<int32_t>(p);
      }
      ip += best_len;
      anchor = ip;
      search_count = 1u << kSkipTrigger;
    } else {
      ip += search_count++ >> kSkipTrigger;
    }
  }

  // Final literal-only sequence.
  ip = src_len;
  const std::size_t lit_len = ip - anchor;
  if (op + 1 + lit_len / 255 + 1 + lit_len > src_len) return 0;
  const std::size_t token_at = op++;
  if (lit_len >= 15) {
    dst[token_at] = 15u << 4;
    op += PutRunLength(dst + op, lit_len - 15);
  } else {
    dst[token_at] = static_cast<uint8_t>(lit_len << 4);
  }
  std::memcpy(dst + op, src + anchor, lit_len);
  op += lit_len;
  return op < src_len ? op : 0;
}

Status DecompressBlock(const uint8_t* src, std::size_t src_len, uint8_t* dst,
                       std::size_t dst_len) {
  std::size_t ip = 0;
  std::size_t op = 0;
  // Reads a token-nibble length plus its 255-run extension. Bounded:
  // every extension byte consumed advances ip, and the total is checked
  // against the destination before any copy.
  auto read_run = [&](std::size_t base, std::size_t* out) -> bool {
    std::size_t len = base;
    if (base == 15) {
      uint8_t b;
      do {
        if (ip >= src_len) return false;
        b = src[ip++];
        len += b;
        if (len > dst_len + 255) return false;  // cannot possibly fit
      } while (b == 255);
    }
    *out = len;
    return true;
  };

  while (ip < src_len) {
    std::size_t lit_len;
    std::size_t match_len;
    std::size_t offset;
    const uint8_t token = src[ip++];
    lit_len = token >> 4;

    // Shortcut for the dominant shape (short literal run followed by a
    // short match, wide margins in both buffers): one wild 16-byte
    // literal copy and, when the match also fits the wild window, three
    // fixed-size stores. Every branch here is margin-proven before any
    // copy; inputs near a buffer edge fall through to the careful path.
    if (lit_len != 15 && src_len - ip >= 18 && dst_len - op >= 18) {
      std::memcpy(dst + op, src + ip, 16);
      ip += lit_len;
      op += lit_len;
      offset = Read16(src + ip);
      ip += 2;
      if (offset - 1 >= op) {  // rejects offset == 0 and offset > op
        return Status::IOError("swz1: match offset out of range");
      }
      if ((token & 15u) != 15 && offset >= 8 && dst_len - op >= 26) {
        match_len = (token & 15u) + kMinMatch;  // <= 18
        uint8_t* o = dst + op;
        const uint8_t* m = o - offset;
        std::memcpy(o, m, 8);
        if (match_len > 8) {
          // The second stride's load depends on the first store when
          // offset < 16, so only pay it for matches that need it.
          std::memcpy(o + 8, m + 8, 8);
          if (match_len > 16) std::memcpy(o + 16, m + 16, 2);
        }
        op += match_len;
        continue;
      }
      if (!read_run(token & 15u, &match_len)) {
        return Status::IOError("swz1: bad match run length");
      }
      match_len += kMinMatch;
      goto copy_match;
    }

    if (!read_run(lit_len, &lit_len)) {
      return Status::IOError("swz1: bad literal run length");
    }
    if (lit_len > src_len - ip || lit_len > dst_len - op) {
      return Status::IOError("swz1: literal run out of bounds");
    }
    std::memcpy(dst + op, src + ip, lit_len);
    ip += lit_len;
    op += lit_len;
    if (ip == src_len) break;  // final sequence carries no match

    if (src_len - ip < 2) {
      return Status::IOError("swz1: truncated match offset");
    }
    offset = Read16(src + ip);
    ip += 2;
    if (offset - 1 >= op) {
      return Status::IOError("swz1: match offset out of range");
    }
    if (!read_run(token & 15u, &match_len)) {
      return Status::IOError("swz1: bad match run length");
    }
    match_len += kMinMatch;

  copy_match:
    if (match_len > dst_len - op) {
      return Status::IOError("swz1: match overruns output");
    }
    const uint8_t* match = dst + op - offset;
    if (offset >= 8 && dst_len - op >= match_len + 8) {
      // 8-byte strides, overrun-tolerant: offset >= 8 makes each stride
      // read-before-write safe, and the extra tail bytes land inside the
      // 8-byte margin proven above.
      uint8_t* o = dst + op;
      uint8_t* const end = o + match_len;
      do {
        std::memcpy(o, match, 8);
        o += 8;
        match += 8;
      } while (o < end);
    } else if (offset >= match_len) {
      std::memcpy(dst + op, match, match_len);
    } else {
      // Overlapping copy (RLE-style match): byte order matters.
      for (std::size_t i = 0; i < match_len; ++i) dst[op + i] = match[i];
    }
    op += match_len;
  }
  if (op != dst_len) {
    return Status::IOError("swz1: block decoded to wrong length");
  }
  return Status::OK();
}

bool IsCompressedFrame(std::string_view data) {
  if (data.size() < 4) return false;
  return Load32(reinterpret_cast<const uint8_t*>(data.data())) ==
         kCompressFrameMagic;
}

std::size_t CompressFrameBound(std::size_t src_len) {
  const std::size_t blocks =
      (src_len + kCompressBlockSize - 1) / kCompressBlockSize;
  return kCompressFrameHeaderBytes + blocks * 4 + src_len;
}

std::string CompressFrame(std::string_view src) {
  std::string out;
  out.resize(CompressFrameBound(src.size()));
  uint8_t* dst = reinterpret_cast<uint8_t*>(out.data());
  Store32(dst, kCompressFrameMagic);
  dst[4] = kSwz1CodecTag;
  Store64(dst + 5, src.size());
  std::size_t op = kCompressFrameHeaderBytes;  // CRC patched at the end
  const uint8_t* ip = reinterpret_cast<const uint8_t*>(src.data());
  std::size_t remaining = src.size();
  while (remaining > 0) {
    const std::size_t chunk =
        remaining < kCompressBlockSize ? remaining : kCompressBlockSize;
    const std::size_t csize = CompressBlock(ip, chunk, dst + op + 4);
    if (csize == 0 || csize >= chunk) {
      Store32(dst + op, 0x80000000u | static_cast<uint32_t>(chunk));
      std::memcpy(dst + op + 4, ip, chunk);
      op += 4 + chunk;
    } else {
      Store32(dst + op, static_cast<uint32_t>(csize));
      op += 4 + csize;
    }
    ip += chunk;
    remaining -= chunk;
  }
  Store32(dst + 13,
          Crc32(std::string_view(out.data() + kCompressFrameHeaderBytes,
                                 op - kCompressFrameHeaderBytes)));
  out.resize(op);
  return out;
}

namespace {

// Validates the fixed header; on success *raw_len/*crc hold the
// declared values.
Status CheckFrameHeader(std::string_view frame, uint64_t* raw_len,
                        uint32_t* crc) {
  if (frame.size() < kCompressFrameHeaderBytes) {
    return Status::IOError("compressed frame: truncated header");
  }
  const uint8_t* p = reinterpret_cast<const uint8_t*>(frame.data());
  if (Read32(p) != kCompressFrameMagic) {
    return Status::IOError("compressed frame: bad magic");
  }
  if (p[4] != kSwz1CodecTag) {
    return Status::IOError("compressed frame: unknown codec tag");
  }
  *raw_len = Read64(p + 5);
  *crc = Read32(p + 13);
  // A lying length field must not size an unbounded allocation: the
  // frame has to carry at least a 4-byte word per declared block, which
  // caps raw_len at 16 Ki x the frame size before any buffer exists.
  const uint64_t blocks =
      (*raw_len + kCompressBlockSize - 1) / kCompressBlockSize;
  if (blocks * 4 > frame.size() - kCompressFrameHeaderBytes) {
    return Status::IOError("compressed frame: declared length exceeds body");
  }
  return Status::OK();
}

}  // namespace

Result<uint64_t> CompressedFrameRawLength(std::string_view frame) {
  uint64_t raw_len = 0;
  uint32_t crc = 0;
  Status st = CheckFrameHeader(frame, &raw_len, &crc);
  if (!st.ok()) return st;
  return raw_len;
}

Result<uint32_t> CompressedFrameCrc(std::string_view frame) {
  uint64_t raw_len = 0;
  uint32_t crc = 0;
  Status st = CheckFrameHeader(frame, &raw_len, &crc);
  if (!st.ok()) return st;
  return crc;
}

Result<std::string> DecompressFrame(std::string_view frame) {
  uint64_t raw_len = 0;
  uint32_t crc = 0;
  Status st = CheckFrameHeader(frame, &raw_len, &crc);
  if (!st.ok()) return st;
  const std::string_view body = frame.substr(kCompressFrameHeaderBytes);
  // CRC gate before any allocation is sized from decoded counts: a
  // rotted body is rejected here, so the block loop below only ever
  // sees bytes the writer actually produced (or a forged CRC, which the
  // bounds checks still contain).
  if (Crc32(body) != crc) {
    return Status::IOError("compressed frame: CRC mismatch");
  }
  std::string out;
  out.resize(raw_len);
  uint8_t* dst = reinterpret_cast<uint8_t*>(out.data());
  const uint8_t* ip = reinterpret_cast<const uint8_t*>(body.data());
  std::size_t remaining_in = body.size();
  uint64_t produced = 0;
  while (produced < raw_len) {
    if (remaining_in < 4) {
      return Status::IOError("compressed frame: truncated block header");
    }
    const uint32_t word = Read32(ip);
    ip += 4;
    remaining_in -= 4;
    const bool raw = (word & 0x80000000u) != 0;
    const std::size_t stored = word & 0x7FFFFFFFu;
    const std::size_t chunk =
        raw_len - produced < kCompressBlockSize
            ? static_cast<std::size_t>(raw_len - produced)
            : kCompressBlockSize;
    if (stored > remaining_in) {
      return Status::IOError("compressed frame: block overruns body");
    }
    if (raw) {
      if (stored != chunk) {
        return Status::IOError("compressed frame: raw block size mismatch");
      }
      std::memcpy(dst + produced, ip, stored);
    } else {
      Status bs = DecompressBlock(ip, stored, dst + produced, chunk);
      if (!bs.ok()) return bs;
    }
    ip += stored;
    remaining_in -= stored;
    produced += chunk;
  }
  if (remaining_in != 0) {
    return Status::IOError("compressed frame: trailing bytes after blocks");
  }
  return out;
}

}  // namespace swift
