//===- bench/BenchUtil.h - Shared benchmark helpers -------------*- C++ -*-===//
///
/// \file
/// DSL sources for the paper's example programs and small table-printing
/// helpers shared by the figure-reproduction benchmark binaries.
///
//===----------------------------------------------------------------------===//

#ifndef ALP_BENCHUTIL_H
#define ALP_BENCHUTIL_H

#include "core/Driver.h"
#include "frontend/Lowering.h"
#include "support/Diagnostics.h"

#include <cstdio>
#include <string>

namespace alp {
namespace bench {

inline Program compileOrDie(const std::string &Src) {
  DiagnosticEngine Diags;
  auto P = compileDsl(Src, Diags);
  if (!P)
    reportFatalError("benchmark program failed to compile:\n" + Diags.str());
  return std::move(*P);
}

/// Runs the decomposition pipeline or dies: benchmark inputs are fixed,
/// so a hard failure from decomposeOrError is a harness bug, never a
/// measurement.
inline ProgramDecomposition decomposeOrDie(Program &P,
                                           const MachineParams &M,
                                           const DriverOptions &Opts = {}) {
  Expected<ProgramDecomposition> PD = decomposeOrError(P, M, Opts);
  if (!PD.hasValue())
    reportFatalError("benchmark decomposition failed: " + PD.status().str());
  return PD.takeValue();
}

/// Figure 1's running example.
inline const char *fig1Source() {
  return R"(
program fig1;
param N = 8;
array X[N + 1, N + 1], Y[N + 1, N + 1];
array Z[N + 2, N + 2];
for i1 = 0 to N {
  for i2 = 0 to N {
    Y[i1, N - i2] += X[i1, i2];
  }
}
for i1 = 1 to N {
  for i2 = 1 to N {
    Z[i1, i2] = Z[i1, i2 - 1] + Y[i2, i1 - 1];
  }
}
)";
}

/// The four-point difference operator of Sec. 5 (Figure 3).
inline std::string stencilSource(int64_t N) {
  return R"(
program stencil;
param N = )" + std::to_string(N) + R"(;
array X[N + 1, N + 1];
for i1 = 1 to N - 1 {
  for i2 = 1 to N - 1 {
    X[i1, i2] = f(X[i1, i2], X[i1 - 1, i2] + X[i1 + 1, i2]
                 + X[i1, i2 - 1] + X[i1, i2 + 1]) @cost(10);
  }
}
)";
}

/// The Sec. 6.2 / Figure 5 program.
inline const char *fig5Source() {
  return R"(
program fig5;
param N = 511;
array X[N + 1, N + 1], Y[N + 1, N + 1];
forall i1 = 0 to N {
  forall i2 = 0 to N {
    X[i1, i2] = f1(X[i1, i2], Y[i1, i2]) @cost(40);
    Y[i1, i2] = f2(X[i1, i2], Y[i1, i2]) @cost(40);
  }
}
if prob(0.75) {
  forall i1 = 0 to N {
    for i2 = 1 to N {
      X[i1, i2] = f3(X[i1, i2 - 1]) @cost(40);
    }
  }
} else {
  forall i1 = 0 to N {
    for i2 = 1 to N {
      Y[i2, i1] = f4(Y[i2 - 1, i1]) @cost(40);
    }
  }
}
forall i1 = 0 to N {
  forall i2 = 0 to N {
    X[i1, i2] = f5(X[i1, i2], Y[i1, i2]) @cost(40);
    Y[i1, i2] = f6(X[i1, i2], Y[i1, i2]) @cost(40);
  }
}
)";
}

/// The heat-conduction phase of SIMPLE (Sec. 8): surrounding elementwise
/// nests plus the ADI integration whose parallelism alternates between
/// rows and columns. The paper's routine is 165 lines with ~20 nests over
/// 1K x 1K double arrays; this kernel keeps the structure (row-friendly
/// elementwise work around a row sweep and a column sweep) at a
/// configurable size.
inline std::string conductSource(int64_t N, int64_t T) {
  return R"(
program conduct;
param N = )" + std::to_string(N) + R"(, T = )" + std::to_string(T) + R"(;
array X[N + 1, N + 1], Y[N + 1, N + 1], Z[N + 1, N + 1];
array W[N + 1, N + 1], V[N + 1, N + 1];
for t = 1 to T {
  forall i = 0 to N {
    forall j = 0 to N {
      Y[i, j] = f1(X[i, j], Z[i, j]) @cost(12);
    }
  }
  forall i = 0 to N {
    forall j = 0 to N {
      Z[i, j] = f2(Y[i, j], X[i, j]) @cost(12);
    }
  }
  forall i = 0 to N {
    forall j = 0 to N {
      W[i, j] = f3(Y[i, j], Z[i, j]) @cost(12);
    }
  }
  forall i = 0 to N {
    forall j = 0 to N {
      V[i, j] = f4(W[i, j], X[i, j]) @cost(12);
    }
  }
  forall i = 0 to N {
    for j = 1 to N {
      X[i, j] = f5(X[i, j], X[i, j - 1], Y[i, j]) @cost(20);
    }
  }
  forall j = 0 to N {
    for i = 1 to N {
      X[i, j] = f6(X[i, j], X[i - 1, j], Z[i, j]) @cost(20);
    }
  }
  forall i = 0 to N {
    forall j = 0 to N {
      Y[i, j] = f7(Y[i, j], X[i, j], V[i, j]) @cost(12);
    }
  }
  forall i = 0 to N {
    forall j = 0 to N {
      Z[i, j] = f8(Z[i, j], W[i, j], Y[i, j]) @cost(12);
    }
  }
}
)";
}

inline void printRule(int Width = 72) {
  for (int I = 0; I != Width; ++I)
    std::putchar('-');
  std::putchar('\n');
}

inline void printHeader(const char *Title) {
  printRule();
  std::printf("%s\n", Title);
  printRule();
}

} // namespace bench
} // namespace alp

#endif // ALP_BENCHUTIL_H
