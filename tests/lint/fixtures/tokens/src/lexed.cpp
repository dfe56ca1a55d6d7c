// Fixture: code that a character scan got wrong and the token stream
// gets right. Each case is a deliberate difference from the old scan.
#include <fstream>

void spaced() {
  std :: ofstream out{"spaced"};  // finding: spacing does not hide it
}

long separated() {
  const long big = 1'000;  // a digit separator, not a char literal
  std::ofstream after{"after"};  // finding: seen past the separator
  return big;
}

void brace_span() {
  obs::Span{"tokens.unregistered"};  // finding: no space before the brace
}

// Literal contents are never code: no finding for either quote.
const char* kQuoted = R"(std::ofstream quoted{"x"}; obs::counter("y");)";
