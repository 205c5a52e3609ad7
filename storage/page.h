// Fixed-size page format for the disk-resident FITing-Tree (paper Sec 5's
// page-granular cost model made literal): every on-disk page carries a
// 16-byte typed header whose CRC32C covers the rest of the page, so torn
// writes and bit rot are detected at read time rather than silently served.
//
// Every pool miss verifies a whole page, so the checksum runs on the fastest
// of three kernels the CPU has, picked once at runtime via
// __builtin_cpu_supports (as core/search_policy.h picks AVX2):
//   1. Folding (AVX-512 VPCLMULQDQ): four 512-bit carry-less-multiply
//      accumulators fold 256 B per step, after Intel's "Fast CRC Computation
//      for Generic Polynomials Using PCLMULQDQ", then one folds 64 B per
//      step; the last n % 64 bytes go through the `crc32` instruction.
//   2. SSE4.2 three-stream: the `crc32` instruction over three independent
//      blocks, capped at its 8 B/cycle throughput.
//   3. Byte-wise table: every other CPU, and -DFITREE_NO_SIMD builds.
// All three compute the same CRC32C, so the page bytes do not depend on the
// kernel that sealed them.

#ifndef FITREE_STORAGE_PAGE_H_
#define FITREE_STORAGE_PAGE_H_

#include <cstdlib>

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>

#if !defined(FITREE_NO_SIMD) && defined(__x86_64__) && \
    (defined(__GNUC__) || defined(__clang__))
#define FITREE_CRC32C_X86 1
#include <immintrin.h>
#endif

namespace fitree::storage {

inline constexpr size_t kDefaultPageBytes = 4096;
// Small enough that tests can force multi-page files from tiny datasets,
// large enough that every page type fits its header plus one record.
inline constexpr size_t kMinPageBytes = 128;
// Version 2: ping-pong meta slots in pages 0-1 and per-segment
// leaf-page addressing, enabling crash-safe append-and-republish
// compaction. Version 3: page checksums are CRC32C instead of the IEEE
// CRC32. Files of any other version are rejected at Open.
inline constexpr uint16_t kPageFormatVersion = 3;

// O_DIRECT requires the destination buffer, the file offset, and the
// transfer size to be multiples of the device's logical block size.
// Aligning every page buffer to 4096 satisfies any block size in practice.
inline constexpr size_t kDirectIoAlignment = 4096;

enum class PageType : uint16_t {
  kMeta = 1,          // page 0: file-wide metadata (SegmentFileMeta)
  kSegmentTable = 2,  // packed segment records
  kLeaf = 3,          // sorted key/payload entries
};

struct PageHeader {
  uint32_t checksum;  // CRC32C of bytes [4, page_bytes)
  uint16_t type;      // PageType
  uint16_t version;   // kPageFormatVersion
  uint32_t page_id;   // file-global page number, guards misdirected reads
  uint32_t count;     // records stored in this page
};
static_assert(sizeof(PageHeader) == 16);
inline constexpr size_t kPageHeaderBytes = sizeof(PageHeader);

namespace detail {

// CRC32C (Castagnoli) generator, bit-reflected: the polynomial the SSE4.2
// `crc32` instruction implements.
inline constexpr uint32_t kCrc32cPoly = 0x82F63B78u;

constexpr std::array<uint32_t, 256> MakeCrc32cTable() {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int k = 0; k < 8; ++k) {
      crc = (crc >> 1) ^ ((crc & 1u) ? kCrc32cPoly : 0u);
    }
    table[i] = crc;
  }
  return table;
}

inline constexpr std::array<uint32_t, 256> kCrc32cTable = MakeCrc32cTable();

// Portable kernel: one table lookup per byte. Used on CPUs without SSE4.2,
// on non-x86 targets and under FITREE_NO_SIMD.
inline uint32_t Crc32cSoftware(const void* data, size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  uint32_t crc = 0xFFFFFFFFu;
  for (size_t i = 0; i < n; ++i) {
    crc = (crc >> 8) ^ kCrc32cTable[(crc ^ p[i]) & 0xFFu];
  }
  return crc ^ 0xFFFFFFFFu;
}

#if defined(FITREE_CRC32C_X86)

inline bool HaveSse42() {
  static const bool have = __builtin_cpu_supports("sse4.2") != 0;
  return have;
}

inline bool HaveFold() {
  static const bool have = __builtin_cpu_supports("avx512f") != 0 &&
                           __builtin_cpu_supports("avx512vl") != 0 &&
                           __builtin_cpu_supports("vpclmulqdq") != 0 &&
                           HaveSse42();
  return have;
}

// Multiplication by a fixed c(x) modulo P(x) over GF(2), bit-reflected, as
// a matrix: column i is c * x^i, the image of the multiplicand's x^i
// coefficient (bit 31 - i). Building the columns once per constant takes
// zlib multmodp's serial x^i chain off the per-call path.
struct ShiftMatrix {
  std::array<uint32_t, 32> column{};

  constexpr void Build(uint32_t c) {
    for (uint32_t& col : column) {
      col = c;
      c = (c >> 1) ^ (kCrc32cPoly & (0u - (c & 1u)));
    }
  }

  constexpr uint32_t Apply(uint32_t a) const {
    uint32_t p = 0;
    for (const uint32_t col : column) {
      p ^= col & (0u - (a >> 31));
      a <<= 1;
    }
    return p;
  }
};

// a(x) * b(x) mod P(x) (zlib's multmodp).
constexpr uint32_t MultModP(uint32_t a, uint32_t b) {
  ShiftMatrix m;
  m.Build(b);
  return m.Apply(a);
}

// x^(8n) mod P: multiplying a raw CRC register by it advances the register
// over n zero bytes.
constexpr uint32_t ZeroBytesOperator(size_t n) {
  uint32_t result = 1u << 31;  // x^0
  uint32_t square = 1u << 23;  // x^8
  for (; n != 0; n >>= 1) {
    if ((n & 1u) != 0) result = MultModP(result, square);
    square = MultModP(square, square);
  }
  return result;
}

// Every file uses one page size, so the shift matrices of the last block
// length are kept per thread and rebuilt only when the length changes.
struct StreamShift {
  size_t block_bytes = 0;
  ShiftMatrix one_block;   // times x^(8 * block_bytes) mod P
  ShiftMatrix two_blocks;  // times x^(16 * block_bytes) mod P
};

inline const StreamShift& ShiftFor(size_t block_bytes) {
  thread_local StreamShift shift;
  if (shift.block_bytes != block_bytes) {
    const uint32_t one = ZeroBytesOperator(block_bytes);
    shift.one_block.Build(one);
    shift.two_blocks.Build(MultModP(one, one));
    shift.block_bytes = block_bytes;
  }
  return shift;
}

// Below this length the two shifts cost more than the three streams save
// over one.
inline constexpr size_t kThreeStreamMinBytes = 512;

// Runs the raw CRC register `crc` over `n` bytes, 8 at a time, then byte by
// byte. Words are loaded with memcpy, so any alignment is legal.
__attribute__((target("sse4.2"))) inline uint32_t Crc32cWords(
    uint64_t crc, const unsigned char* p, size_t n) {
  for (; n >= 8; n -= 8, p += 8) {
    uint64_t w;
    std::memcpy(&w, p, 8);
    crc = _mm_crc32_u64(crc, w);
  }
  uint32_t crc32 = static_cast<uint32_t>(crc);
  for (; n != 0; --n, ++p) crc32 = _mm_crc32_u8(crc32, *p);
  return crc32;
}

// SSE4.2 kernel. The `crc32` instruction has a 3-cycle latency but issues
// every cycle, so the bulk of the buffer runs as three independent 8-byte
// streams over consecutive equal blocks. The CRC register is linear over
// GF(2): crc(s, A|B|C) = s_A * x^(16L) ^ s_B * x^(8L) ^ s_C, where each
// block after the first starts from a zero register.
__attribute__((target("sse4.2"))) inline uint32_t Crc32cHardware(
    const void* data, size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  uint64_t crc = 0xFFFFFFFFu;
  if (n >= kThreeStreamMinBytes) {
    const size_t block = n / 24 * 8;
    const StreamShift& shift = ShiftFor(block);
    uint64_t crc1 = 0;
    uint64_t crc2 = 0;
    for (size_t i = 0; i < block; i += 8) {
      uint64_t w0;
      uint64_t w1;
      uint64_t w2;
      std::memcpy(&w0, p + i, 8);
      std::memcpy(&w1, p + block + i, 8);
      std::memcpy(&w2, p + 2 * block + i, 8);
      crc = _mm_crc32_u64(crc, w0);
      crc1 = _mm_crc32_u64(crc1, w1);
      crc2 = _mm_crc32_u64(crc2, w2);
    }
    crc = shift.two_blocks.Apply(static_cast<uint32_t>(crc)) ^
          shift.one_block.Apply(static_cast<uint32_t>(crc1)) ^ crc2;
    p += 3 * block;
    n -= 3 * block;
  }
  return Crc32cWords(crc, p, n) ^ 0xFFFFFFFFu;
}

// Folding kernel. A 128-bit lane of the message, read as a bit-reflected
// polynomial hi(x) + lo(x) * x^64, moves d bits forward as
// lo * x^(d+64) + hi * x^d (mod P). Two carry-less multiplies compute that,
// each by a 33-bit constant: x^(d+32) resp. x^(d-32) mod P, bit-reflected
// and shifted left by 1 (the extra x^32 and the shift align the 127-bit
// reflected product with the lane). Each product is congruent to its part
// of the moved lane but not reduced: at most 96 bits, so it fits the lane.
inline constexpr size_t kFoldBlockBytes = 256;

struct FoldConstants {
  uint64_t lo;  // x^(d+32) mod P, multiplies the lane's low quadword
  uint64_t hi;  // x^(d-32) mod P, multiplies the lane's high quadword
};

// Constants that move a lane `bytes` forward (d = 8 * bytes).
constexpr FoldConstants FoldBy(size_t bytes) {
  return {uint64_t{ZeroBytesOperator(bytes + 4)} << 1,
          uint64_t{ZeroBytesOperator(bytes - 4)} << 1};
}

inline constexpr FoldConstants kFold16 = FoldBy(16);
inline constexpr FoldConstants kFold32 = FoldBy(32);
inline constexpr FoldConstants kFold48 = FoldBy(48);
inline constexpr FoldConstants kFold64 = FoldBy(64);
inline constexpr FoldConstants kFoldBlock = FoldBy(kFoldBlockBytes);

// Every 128-bit lane of `x` folded forward by `k`, plus `next`.
__attribute__((target("avx512f,avx512vl,vpclmulqdq,sse4.2"))) inline __m512i
FoldLanes(__m512i x, __m512i k, __m512i next) {
  return _mm512_ternarylogic_epi64(_mm512_clmulepi64_epi128(x, k, 0x00),
                                   _mm512_clmulepi64_epi128(x, k, 0x11),
                                   next, 0x96);  // three-way xor
}

__attribute__((target("avx512f,avx512vl,vpclmulqdq,sse4.2"))) inline __m512i
BroadcastFold(FoldConstants k) {
  const auto lo = static_cast<long long>(k.lo);
  const auto hi = static_cast<long long>(k.hi);
  return _mm512_set4_epi64(hi, lo, hi, lo);
}

// Four 512-bit accumulators cover 256 consecutive bytes and fold forward
// 256 B per step. Then each folds 64 B into the next, the last one keeps
// folding whole 64 B blocks, its four lanes fold into its top lane, and two
// `crc32` instructions reduce those 128 bits to the register: folding keeps
// the message's CRC unchanged, so the register equals the CRC of the 16
// remaining bytes from zero. The last n % 64 bytes go through Crc32cWords.
// Only whole 64 B blocks inside `n` are loaded, so nothing is read past it.
__attribute__((target("avx512f,avx512vl,vpclmulqdq,sse4.2"))) inline uint32_t
Crc32cFold(const void* data, size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  uint64_t crc = 0xFFFFFFFFu;
  if (n >= kFoldBlockBytes) {
    __m512i x0 = _mm512_loadu_si512(p);
    __m512i x1 = _mm512_loadu_si512(p + 64);
    __m512i x2 = _mm512_loadu_si512(p + 128);
    __m512i x3 = _mm512_loadu_si512(p + 192);
    // The all-ones start value enters as the message's first four bytes.
    x0 = _mm512_xor_si512(x0, _mm512_zextsi128_si512(_mm_cvtsi32_si128(-1)));
    const __m512i k_block = BroadcastFold(kFoldBlock);
    size_t i = kFoldBlockBytes;
    for (; n - i >= kFoldBlockBytes; i += kFoldBlockBytes) {
      x0 = FoldLanes(x0, k_block, _mm512_loadu_si512(p + i));
      x1 = FoldLanes(x1, k_block, _mm512_loadu_si512(p + i + 64));
      x2 = FoldLanes(x2, k_block, _mm512_loadu_si512(p + i + 128));
      x3 = FoldLanes(x3, k_block, _mm512_loadu_si512(p + i + 192));
    }
    const __m512i k_zmm = BroadcastFold(kFold64);
    x1 = FoldLanes(x0, k_zmm, x1);
    x2 = FoldLanes(x1, k_zmm, x2);
    x3 = FoldLanes(x2, k_zmm, x3);
    for (; n - i >= 64; i += 64) {
      x3 = FoldLanes(x3, k_zmm, _mm512_loadu_si512(p + i));
    }
    // Lanes 0-2 fold forward 48, 32 and 16 bytes onto lane 3, which is
    // multiplied by zero and passed through.
    const __m512i k_lanes = _mm512_set_epi64(
        0, 0, static_cast<long long>(kFold16.hi),
        static_cast<long long>(kFold16.lo), static_cast<long long>(kFold32.hi),
        static_cast<long long>(kFold32.lo), static_cast<long long>(kFold48.hi),
        static_cast<long long>(kFold48.lo));
    const __m512i lanes =
        FoldLanes(x3, k_lanes, _mm512_maskz_mov_epi64(0xC0, x3));
    // The zero-masking extracts leave no lane undefined (GCC 12 warns
    // about the plain forms under -Wmaybe-uninitialized).
    const __m128i rest = _mm_xor_si128(
        _mm_ternarylogic_epi64(_mm512_maskz_extracti32x4_epi32(0xF, lanes, 0),
                               _mm512_maskz_extracti32x4_epi32(0xF, lanes, 1),
                               _mm512_maskz_extracti32x4_epi32(0xF, lanes, 2),
                               0x96),
        _mm512_maskz_extracti32x4_epi32(0xF, lanes, 3));
    crc = _mm_crc32_u64(0, static_cast<uint64_t>(_mm_cvtsi128_si64(rest)));
    crc = _mm_crc32_u64(crc, static_cast<uint64_t>(_mm_extract_epi64(rest, 1)));
    p += i;
    n -= i;
  }
  return Crc32cWords(crc, p, n) ^ 0xFFFFFFFFu;
}

#endif  // FITREE_CRC32C_X86

}  // namespace detail

// CRC32C of `n` bytes (standard form: all-ones initial value, inverted
// result). Every kernel gives identical results.
inline uint32_t Crc32c(const void* data, size_t n) {
#if defined(FITREE_CRC32C_X86)
  if (detail::HaveFold()) return detail::Crc32cFold(data, n);
  if (detail::HaveSse42()) return detail::Crc32cHardware(data, n);
#endif
  return detail::Crc32cSoftware(data, n);
}

// Unaligned-safe record access inside raw page buffers.
template <typename T>
T LoadAs(const std::byte* p) {
  T v;
  std::memcpy(&v, p, sizeof(T));
  return v;
}

template <typename T>
void StoreAs(std::byte* p, const T& v) {
  std::memcpy(p, &v, sizeof(T));
}

// Stamps the header and checksum onto a fully-populated page buffer. The
// caller must have zero-initialized the buffer before filling it so struct
// padding and the unused tail hash deterministically.
inline void SealPage(std::byte* page, size_t page_bytes, PageType type,
                     uint32_t page_id, uint32_t count) {
  PageHeader h{};
  h.checksum = 0;
  h.type = static_cast<uint16_t>(type);
  h.version = kPageFormatVersion;
  h.page_id = page_id;
  h.count = count;
  StoreAs(page, h);
  StoreAs(page, Crc32c(page + sizeof(uint32_t), page_bytes - sizeof(uint32_t)));
}

// Returns false when the checksum, version, type, or page id disagree with
// what the caller expected to read.
inline bool VerifyPage(const std::byte* page, size_t page_bytes,
                       PageType expected_type, uint32_t expected_id,
                       PageHeader* out = nullptr) {
  const PageHeader h = LoadAs<PageHeader>(page);
  if (h.checksum !=
      Crc32c(page + sizeof(uint32_t), page_bytes - sizeof(uint32_t))) {
    return false;
  }
  if (h.version != kPageFormatVersion) return false;
  if (h.type != static_cast<uint16_t>(expected_type)) return false;
  if (h.page_id != expected_id) return false;
  if (out != nullptr) *out = h;
  return true;
}

// One entry of a batched page read: filled in by the caller (page id +
// destination), answered by the source (ok).
struct PageReadRequest {
  uint32_t page_id = 0;
  std::byte* out = nullptr;
  bool ok = false;
};

// Source of verified page reads for the buffer pool: implemented by
// SegmentFileReader (pread + VerifyPage) and by in-memory fakes in tests.
class PageSource {
 public:
  virtual ~PageSource() = default;

  // Fills `out` (page_bytes() long) with page `page_id`. Returns false on
  // I/O failure or page verification failure; `out` is then unspecified.
  virtual bool ReadPageInto(uint32_t page_id, std::byte* out) = 0;

  // Batched form: resolves all `n` requests, setting each request's `ok`.
  // The base implementation reads serially; SegmentFileReader overrides it
  // to submit every read before waiting on any (storage/async_io.h), which
  // is what lets a batch of independent lookups overlap their page faults.
  virtual void ReadPagesInto(PageReadRequest* reqs, size_t n) {
    for (size_t i = 0; i < n; ++i) {
      reqs[i].ok = ReadPageInto(reqs[i].page_id, reqs[i].out);
    }
  }
};

// Page-granular aligned allocation (kDirectIoAlignment) so pool frames and
// scratch buffers are always O_DIRECT-legal destinations. Size is rounded
// up to the alignment because aligned_alloc requires it.
class AlignedBytes {
 public:
  AlignedBytes() = default;
  explicit AlignedBytes(size_t n) : size_(n) {
    const size_t rounded =
        (n + kDirectIoAlignment - 1) / kDirectIoAlignment * kDirectIoAlignment;
    data_ = static_cast<std::byte*>(
        std::aligned_alloc(kDirectIoAlignment, rounded));
    std::memset(data_, 0, rounded);
  }
  ~AlignedBytes() { std::free(data_); }

  AlignedBytes(AlignedBytes&& o) noexcept : data_(o.data_), size_(o.size_) {
    o.data_ = nullptr;
    o.size_ = 0;
  }
  AlignedBytes& operator=(AlignedBytes&& o) noexcept {
    if (this != &o) {
      std::free(data_);
      data_ = o.data_;
      size_ = o.size_;
      o.data_ = nullptr;
      o.size_ = 0;
    }
    return *this;
  }
  AlignedBytes(const AlignedBytes&) = delete;
  AlignedBytes& operator=(const AlignedBytes&) = delete;

  std::byte* data() { return data_; }
  const std::byte* data() const { return data_; }
  size_t size() const { return size_; }

 private:
  std::byte* data_ = nullptr;
  size_t size_ = 0;
};

}  // namespace fitree::storage

#endif  // FITREE_STORAGE_PAGE_H_
