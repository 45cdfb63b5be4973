//===- support/FaultInjection.h - Deterministic fault injection -*- C++ -*-==//
//
// Part of the SPL reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Named fault-injection sites, armed through the SPL_FAULT environment
/// variable and compiled in unconditionally (the unarmed fast path is a
/// single relaxed atomic load). Every error-handling branch in the
/// compile/load/plan/time pipeline consults a site, so each branch can be
/// driven deterministically from a test or from the command line:
///
///   SPL_FAULT=<site>[:<n>][,<site>[:<n>]...]
///
/// A site fires on its first <n> consultations (default: every time). The
/// full site catalogue lives in docs/RELIABILITY.md; the load-bearing ones:
///
///   native-compile        the kernel C compile fails (synthesized exit 1)
///   native-compile-crash  the compiler dies on a signal (retried once)
///   native-compile-hang   the compile invocation hangs until its timeout
///   dlopen                loading the built module fails
///   dlsym                 the kernel symbol lookup fails
///   wisdom-load           the wisdom file read fails
///   wisdom-save           the wisdom file write fails
///   eval-hang             an evaluator timing run hangs until its timeout
///   trial-crash           trial execution of a fresh kernel segfaults
///   trial-hang            trial execution hangs until its timeout
///   vm-exec               the VM tier fails at plan time (forces oracle)
///   breaker-trip          forces the compile circuit breaker open (plans
///                         degrade straight to VM for the cooldown window)
///   pidfd-open            child waits get no pidfd and take the waitpid
///                         backoff path (results must not change)
///
//===----------------------------------------------------------------------===//

#ifndef SPL_SUPPORT_FAULTINJECTION_H
#define SPL_SUPPORT_FAULTINJECTION_H

#include <string>

namespace spl {
namespace fault {

/// True when SPL_FAULT arms \p Site and its firing budget is not yet
/// exhausted. Each true return consumes one unit of the budget. When
/// SPL_FAULT is unset this is one relaxed atomic load.
bool at(const char *Site);

/// True when any site is armed (budget state ignored). Cheap; used by tests
/// that must skip under an externally imposed fault matrix.
bool armed();

/// Re-reads SPL_FAULT and resets every firing counter. Tests that setenv()
/// mid-process call this to re-arm.
void reset();

/// Canonical diagnostic text for a fired site:
/// "injected fault at '<site>' (SPL_FAULT)".
std::string describe(const char *Site);

} // namespace fault
} // namespace spl

#endif // SPL_SUPPORT_FAULTINJECTION_H
