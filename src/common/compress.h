#ifndef SWIFT_COMMON_COMPRESS_H_
#define SWIFT_COMMON_COMPRESS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "common/result.h"
#include "common/status.h"

namespace swift {

/// \file
/// Dependency-free LZ4-class block codec and framed envelope for the
/// shuffle plane (DESIGN.md Sec. 17). Same in-tree philosophy as
/// common/crc32: no external library, byte-exact round-trips, and every
/// decode path bounds-checked so corrupt input fails closed (a Status,
/// never an out-of-bounds access).
///
/// The codec ("SWZ1") is a greedy byte-oriented LZ77 with the LZ4 wire
/// shape: token byte (4-bit literal run / 4-bit match length - 4),
/// 255-run extension bytes, little-endian u16 match offsets, minimum
/// match 4. Input is cut into independent 64-KiB blocks so offsets fit
/// in 16 bits and corruption is contained to one block; the match
/// finder is a hash head table plus a position chain, depth-bounded,
/// with LZ4-style skip acceleration over incompressible runs. A block
/// the codec cannot shrink is stored raw, so the frame's worst-case
/// overhead is the 17-byte header plus 4 bytes per 64-KiB block
/// (<= 0.4% beyond a few KiB, and the shuffle writer keeps the plain
/// payload whenever the frame does not win at all).
///
/// Frame layout (all integers little-endian):
///   u32  magic      kCompressFrameMagic ("SWZ1"; distinct from the
///                   "SWF2" batch magic so DeserializeColumnBatch can
///                   dispatch on the first 4 bytes)
///   u8   codec      kSwz1CodecTag, the one codec a frame may carry
///   u64  raw_len    uncompressed payload length
///   u32  crc        CRC-32C over the block section that follows
///   then per 64-KiB input chunk:
///   u32  word       bit 31: block stored raw; bits 0..30: stored size
///   u8[] bytes      `stored size` compressed-or-raw bytes
///
/// The CRC covers the *stored* (compressed) bytes, so a reader can
/// reject a rotted frame before sizing any allocation from decoded
/// counts, and spill files can be re-verified without decompressing.

/// First four bytes of a compressed frame ("SWZ1" on the wire).
inline constexpr uint32_t kCompressFrameMagic = 0x315A5753u;

/// Codec tag carried in the frame header: the LZ4-class block codec
/// described above (a block it cannot shrink sets its own raw bit). A
/// frame carrying any other tag is rejected.
inline constexpr uint8_t kSwz1CodecTag = 1;

/// Payloads shorter than this ship (and spill) unframed: the header and
/// codec cost are not amortized. Used by both the shuffle writer's
/// per-edge negotiation and the Cache Worker's spill path.
inline constexpr int64_t kCompressMinBytes = 4096;

/// Uncompressed bytes per independently-coded block.
inline constexpr std::size_t kCompressBlockSize = 64u * 1024u;

/// \brief True when `data` starts with a compressed-frame header.
///
/// Only inspects the first 4 bytes; a true return still requires
/// DecompressFrame to validate the rest (CRC, lengths, block bounds).
bool IsCompressedFrame(std::string_view data);

/// \brief Worst-case frame size for `src_len` input bytes.
///
/// CompressFrame never produces more than this, so callers sizing
/// scratch space can allocate once.
std::size_t CompressFrameBound(std::size_t src_len);

/// \brief Compresses `src` into a self-describing frame.
///
/// Always succeeds: blocks that do not shrink are stored raw, so the
/// result is at most CompressFrameBound(src.size()) bytes. Callers that
/// only want framing-when-it-wins should compare the result size to
/// `src.size()` and keep the plain payload otherwise (the shuffle
/// writer does exactly that).
std::string CompressFrame(std::string_view src);

/// \brief Decompresses a frame produced by CompressFrame.
///
/// Fails closed with IOError on any malformation: bad magic, unknown
/// codec tag, truncated header or block section, CRC mismatch, a block
/// whose stored size lies about the remaining bytes, or compressed
/// bytes that decode past the declared uncompressed length. Never reads
/// or writes out of bounds regardless of input.
Result<std::string> DecompressFrame(std::string_view frame);

/// \brief The uncompressed length a frame's header declares.
///
/// Header-only peek (magic + codec + length are validated, the block
/// section is not); used for accounting before the one real decompress.
Result<uint64_t> CompressedFrameRawLength(std::string_view frame);

/// \brief The CRC-32C a frame's header declares over its stored bytes.
///
/// Recomputing Crc32 over `frame.substr(kCompressFrameHeaderBytes)` and
/// comparing detects rot without decompressing (the spill reload path).
Result<uint32_t> CompressedFrameCrc(std::string_view frame);

/// Frame header size in bytes (magic + codec + raw_len + crc).
inline constexpr std::size_t kCompressFrameHeaderBytes = 4 + 1 + 8 + 4;

/// \brief Compresses one block (<= kCompressBlockSize bytes) of `src`
/// into `dst`.
///
/// `dst` must have room for `src_len` bytes. Returns the compressed
/// size, or 0 when the block does not shrink (caller stores it raw).
/// Exposed for bench_compress and the codec property test; frame users
/// call CompressFrame.
std::size_t CompressBlock(const uint8_t* src, std::size_t src_len,
                          uint8_t* dst);

/// \brief Decompresses one SWZ1 block into exactly `dst_len` bytes.
///
/// Bounds-checked against both buffers; fails with IOError when the
/// stream is malformed or does not decode to exactly `dst_len` bytes.
Status DecompressBlock(const uint8_t* src, std::size_t src_len, uint8_t* dst,
                       std::size_t dst_len);

}  // namespace swift

#endif  // SWIFT_COMMON_COMPRESS_H_
