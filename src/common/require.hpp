// Precondition / invariant checking.
//
// Following the C++ Core Guidelines (I.6, E.12): preconditions are checked at
// API boundaries and violations throw, so callers can rely on documented
// contracts even in release builds.  Hot inner loops use MWX_ASSERT, which
// compiles out in NDEBUG builds.
#pragma once

#include <source_location>
#include <stdexcept>
#include <string>

namespace mwx {

class ContractError : public std::logic_error {
 public:
  using std::logic_error::logic_error;
};

// Throws ContractError when `condition` is false.  Always enabled.
inline void require(bool condition, const std::string& message,
                    std::source_location loc = std::source_location::current()) {
  if (!condition) {
    throw ContractError(std::string(loc.file_name()) + ":" + std::to_string(loc.line()) +
                        ": requirement failed: " + message);
  }
}

// Literal-message form: builds no std::string unless the check fails, so a
// per-element check (MolecularSystem::add_atom during a scene load) costs
// only the comparison.
inline void require(bool condition, const char* message,
                    std::source_location loc = std::source_location::current()) {
  if (!condition) require(false, std::string(message), loc);
}

}  // namespace mwx

#ifdef NDEBUG
#define MWX_ASSERT(cond) ((void)0)
#else
#define MWX_ASSERT(cond) ::mwx::require((cond), #cond)
#endif
