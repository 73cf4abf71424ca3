#include "support/fingerprint.h"

#include <cstring>

#include "driver/options.h"
#include "support/field_codec.h"

namespace emm {

namespace {

constexpr u64 kFnvPrime = 1099511628211ull;

}  // namespace

void Hasher::bytes(const void* data, size_t n) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    state_ ^= p[i];
    state_ *= kFnvPrime;
  }
}

void Hasher::mix(i64 v) {
  unsigned char buf[8];
  u64 u = static_cast<u64>(v);
  for (int i = 0; i < 8; ++i) buf[i] = static_cast<unsigned char>(u >> (8 * i));
  bytes(buf, 8);
}

void Hasher::mix(u64 v) { mix(static_cast<i64>(v)); }

void Hasher::mix(double v) {
  u64 bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  mix(bits);
}

void Hasher::mix(const std::string& s) {
  mix(static_cast<i64>(s.size()));
  bytes(s.data(), s.size());
}

void Hasher::mix(const std::vector<std::string>& v) {
  mix(static_cast<i64>(v.size()));
  for (const std::string& s : v) mix(s);
}

u64 hashCombine(u64 a, u64 b) {
  Hasher h;
  h.mix(a);
  h.mix(b);
  return h.digest();
}

namespace {

/// Feeds the field writer's bytes straight into the digest, so a key is the
/// FNV-1a digest of the value's encoding with the emptiness byte as `E`
/// says (see kSinkEmptiness).
template <EmptinessByte E>
class HashSink {
public:
  void u8(unsigned char v) { h_.bytes(&v, 1); }
  void u64v(u64 v) { h_.mix(v); }
  void i64v(i64 v) { h_.mix(v); }
  void intv(int v) { h_.mix(v); }
  void boolean(bool v) { u8(v ? 1 : 0); }
  void f64(double v) { h_.mix(v); }
  void str(const std::string& s) { h_.mix(s); }
  u64 digest() const { return h_.digest(); }

private:
  Hasher h_;
};

}  // namespace

template <EmptinessByte E>
inline constexpr EmptinessByte kSinkEmptiness<HashSink<E>> = E;

namespace {

template <EmptinessByte E, class T>
u64 hashFields(const T& value) {
  HashSink<E> sink;
  writeValue(sink, value);
  return sink.digest();
}

}  // namespace

u64 hashProgramBlock(const ProgramBlock& block) {
  return hashFields<EmptinessByte::None>(block);
}

u64 hashCompileOptions(const CompileOptions& o) { return hashFields<EmptinessByte::None>(o); }

u64 digestProgramBlock(const ProgramBlock& block) {
  return hashFields<EmptinessByte::Mark>(block);
}

u64 digestCompileOptions(const CompileOptions& o) { return hashFields<EmptinessByte::Mark>(o); }

}  // namespace emm
