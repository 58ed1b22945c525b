// HPF directive front-end (paper Section 4.2, last paragraph, and
// Section 7): "HPF statements can also be used as input to the data
// transformation algorithm. If an array is aligned to a template which is
// then distributed, we must find the equivalent distribution on the array
// directly ... Any offsets in the alignment statement are ignored."
//
// Supported directive subset:
//   TEMPLATE T(100, 100)
//   DISTRIBUTE T(BLOCK, *)            kinds: BLOCK, CYCLIC, CYCLIC(b), *
//   ALIGN A(i, j) WITH T(j, i+1)      dimension permutation; offsets and
//                                     collapsed/replicated dims allowed
//   DISTRIBUTE A(CYCLIC, *)           direct distribution of an array
//
// The result is a decomp::ArrayDecomposition per named array, ready for
// layout::derive_layout — i.e. HPF programs get the same contiguity
// optimization on shared-address-space machines, the use case the paper's
// conclusion highlights.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "core/compiler.hpp"
#include "decomp/decomposition.hpp"
#include "ir/program.hpp"

namespace dct::hpf {

/// One parsed DISTRIBUTE format: a distribution kind per dimension.
struct Distribution {
  std::vector<decomp::DimDistribution> dims;
};

/// Result of processing a directive block.
struct Directives {
  /// Equivalent direct distribution per array name.
  std::map<std::string, decomp::ArrayDecomposition> arrays;
};

/// Parse a newline-separated block of directives. Arrays referenced by
/// ALIGN/DISTRIBUTE must exist in `prog` (templates need not). Virtual
/// processor dimensions are numbered in the order distributed dimensions
/// are first seen, consistently across aligned arrays.
/// Throws dct::Error with a line-precise message on malformed input.
Directives parse(const ir::Program& prog, const std::string& text);

/// Compile `analysis`'s program under the directive block `text`: the
/// global algorithm's decomposition (what CompDecomp and Full compile
/// from) with the data decomposition of every array the directives name
/// replaced, through the tail only (core::compile_with_decomposition).
/// Virtual processor dimensions in the directives must fit the automatic
/// decomposition's processor space; the layout stage rejects one that
/// does not with kUnsupportedConfig.
core::CompiledProgram compile(const core::Analysis& analysis,
                              const std::string& text, core::Mode mode,
                              int procs,
                              const core::CompileOptions& opts = {});

}  // namespace dct::hpf
