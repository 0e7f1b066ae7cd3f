// LZSS compression, implemented from scratch.
//
// PARSEC dedup compresses unique chunks (with gzip in the original); we
// substitute a dependency-free LZ77/LZSS codec: a 64 KiB sliding window
// with a hash-chain match finder, emitting literal bytes and
// (offset, length) match tokens behind per-8-token flag bytes. The format
// is self-contained and deterministic; `Compress` here plays the role of
// the paper's long-running pure function.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace adtm::dedup {

// Compress `input`; the output begins with the uncompressed size (u32 LE),
// so decompression can pre-allocate. Worst-case expansion is bounded by
// ~1/8 overhead plus the 4-byte header. Throws std::length_error for an
// input of 4 GiB or more, whose size the header cannot hold.
std::vector<std::byte> lzss_compress(std::span<const std::byte> input);

// Inverse of lzss_compress. Throws std::runtime_error on malformed input.
std::vector<std::byte> lzss_decompress(std::span<const std::byte> input);

// String conveniences for tests and tools.
std::string lzss_compress_str(const std::string& input);
std::string lzss_decompress_str(const std::string& input);

}  // namespace adtm::dedup
