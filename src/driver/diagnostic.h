// Structured diagnostics for the compiler driver.
//
// Passes report findings through Diagnostic records instead of ad-hoc
// printf/strings: each carries a severity, the stage that produced it, and a
// message. CompileResult accumulates them in pass execution order, so
// callers can render them uniformly (emmapc), assert on them (tests), or
// ship them to a service log.
#pragma once

#include <string>
#include <vector>

#include "support/fields.h"

namespace emm {

enum class Severity { Note, Warning, Error };
constexpr Severity enumMax(Severity) { return Severity::Error; }

const char* severityName(Severity s);

struct Diagnostic {
  Severity severity = Severity::Note;
  std::string stage;    ///< pass name that produced the diagnostic
  std::string message;

  std::string str() const;

  static constexpr void fields(auto& v) {
    v.tag(kTagDiagnostic, "Diagnostic");
    v("severity", &Diagnostic::severity);
    v("stage", &Diagnostic::stage);
    v("message", &Diagnostic::message);
  }
};

/// True when any diagnostic is an error.
bool hasErrors(const std::vector<Diagnostic>& diags);

/// Renders all diagnostics, one per line.
std::string renderDiagnostics(const std::vector<Diagnostic>& diags);

}  // namespace emm
