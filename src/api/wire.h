// Table-driven codec for tagged-field messages (util/serde.h framing).
//
// Each wire struct has ONE field list — an overload of Fields() that
// names every field's tag and member, in encode order:
//
//   template <class V>
//   void Fields(QueryRequest& m, V& v) {
//     v(1, m.topic);
//     ...
//     v.If(m.min_timestamp_us != 0, 8, m.min_timestamp_us);
//   }
//
// EncodeFields() runs the list with a FieldEncoder, DecodeFields() with
// a FieldDecoder, so a field added to the list is encoded and decoded
// with no other edit. The member's C++ type picks its wire kind:
//
//   bool                       u32 0/1
//   4-byte integer or enum     u32 (int and enums convert at the edge)
//   8-byte integer             u64 (size_t included)
//   double                     8 raw bytes
//   std::string / string_view  bytes (a view borrows the decoded buffer)
//   std::vector<uint64_t>      packed u64 array in one field
//   std::vector<T>             one field per element
//   std::optional<T>           T's encoding, written only when set
//   const T*                   nested T via T::EncodeTo, omitted if null
//   any other struct           nested message with its own Fields()
//
// and two forms refine it:
//
//   v.If(cond, tag, x)      written only when `cond` holds (decode reads
//                           the field whenever it is present)
//   v.Enum(tag, x, last)    an enum whose decode rejects values past
//                           `last` with InvalidArgument
//
// Decoding never reads out of bounds: broken framing and a scalar of
// the wrong width are Corruption, an unknown tag is skipped, a repeated
// scalar tag keeps the last value seen, and absent fields keep the
// struct's defaults.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "util/serde.h"
#include "util/status.h"

namespace bytebrain {
namespace api {

template <class T>
inline constexpr bool kIsVector = false;
template <class T>
inline constexpr bool kIsVector<std::vector<T>> = true;
template <class T>
inline constexpr bool kIsOptional = false;
template <class T>
inline constexpr bool kIsOptional<std::optional<T>> = true;

/// A message without fields (every empty request/response).
template <class M, class V>
  requires std::is_empty_v<M>
void Fields(M&, V&) {}

template <class M>
void EncodeFields(const M& m, std::string* out);
template <class M>
Status DecodeFields(std::string_view bytes, M* m);

class FieldEncoder {
 public:
  explicit FieldEncoder(std::string* out) : out_(out), w_(out) {}

  template <class T>
  void operator()(uint32_t tag, const T& x) { Write(tag, x); }
  template <class T>
  void If(bool cond, uint32_t tag, const T& x) {
    if (cond) Write(tag, x);
  }
  template <class E>
  void Enum(uint32_t tag, E x, E /*last*/) { Write(tag, x); }

 private:
  template <class T>
  void Write(uint32_t tag, const T& x) {
    if constexpr (std::is_same_v<T, bool>) {
      w_.PutBool(tag, x);
    } else if constexpr (std::is_same_v<T, double>) {
      w_.PutDouble(tag, x);
    } else if constexpr (std::is_integral_v<T> || std::is_enum_v<T>) {
      static_assert(sizeof(T) == 4 || sizeof(T) == 8);
      if constexpr (sizeof(T) == 4) {
        w_.PutU32(tag, static_cast<uint32_t>(x));
      } else {
        w_.PutU64(tag, static_cast<uint64_t>(x));
      }
    } else if constexpr (std::is_convertible_v<const T&, std::string_view>) {
      w_.PutBytes(tag, x);
    } else if constexpr (std::is_same_v<T, std::vector<uint64_t>>) {
      w_.PutU64Array(tag, x);
    } else if constexpr (kIsVector<T>) {
      for (const auto& e : x) Write(tag, e);
    } else if constexpr (kIsOptional<T>) {
      if (x) Write(tag, *x);
    } else if constexpr (std::is_pointer_v<T>) {
      if (x == nullptr) return;
      const size_t body = w_.Begin(tag);
      x->EncodeTo(out_);
      w_.End(body);
    } else {
      const size_t body = w_.Begin(tag);
      EncodeFields(x, out_);
      w_.End(body);
    }
  }

  std::string* out_;
  FieldWriter w_;
};

/// Walks the wire fields in order. Each pass over a Fields() list
/// consumes the run of wire fields that follows the list's order — one
/// pass for anything EncodeFields wrote — and DecodeFields starts
/// another pass for a field that came out of order.
class FieldDecoder {
 public:
  explicit FieldDecoder(std::string_view bytes) : reader_(bytes) { Next(); }

  template <class T>
  void operator()(uint32_t tag, T& x) {
    while (has_ && tag_ == tag && status_.ok()) {
      Read(x);
      if (status_.ok()) Next();
    }
  }
  template <class T>
  void If(bool /*cond*/, uint32_t tag, T& x) { (*this)(tag, x); }
  template <class E>
  void Enum(uint32_t tag, E& x, E last) {
    while (has_ && tag_ == tag && status_.ok()) {
      uint32_t raw = 0;
      if (!FieldReader::U32(payload_, &raw)) return Malformed();
      if (raw > static_cast<uint32_t>(last)) {
        status_ = Status::InvalidArgument("unknown enum value " +
                                          std::to_string(raw) + " in field " +
                                          std::to_string(tag));
        return;
      }
      x = static_cast<E>(raw);
      Next();
    }
  }

  /// True while an unconsumed field remains and nothing failed.
  bool more() const { return has_ && status_.ok(); }
  /// Fields consumed (or skipped) so far.
  uint64_t position() const { return position_; }
  void Skip() { Next(); }
  const Status& status() const { return status_; }

 private:
  void Next() {
    has_ = reader_.Next(&tag_, &payload_);
    ++position_;
    if (reader_.error()) {
      status_ = Status::Corruption("truncated or malformed message");
    }
  }
  void Malformed() {
    status_ = Status::Corruption("malformed field " + std::to_string(tag_));
  }

  template <class T>
  void Read(T& x) {
    bool ok = true;
    if constexpr (std::is_same_v<T, bool>) {
      ok = FieldReader::Bool(payload_, &x);
    } else if constexpr (std::is_same_v<T, double>) {
      ok = FieldReader::Double(payload_, &x);
    } else if constexpr (std::is_integral_v<T> || std::is_enum_v<T>) {
      if constexpr (sizeof(T) == 4) {
        uint32_t raw = 0;
        ok = FieldReader::U32(payload_, &raw);
        if (ok) x = static_cast<T>(raw);
      } else {
        uint64_t raw = 0;
        ok = FieldReader::U64(payload_, &raw);
        if (ok) x = static_cast<T>(raw);
      }
    } else if constexpr (std::is_same_v<T, std::string>) {
      x.assign(payload_);
    } else if constexpr (std::is_same_v<T, std::string_view>) {
      x = payload_;
    } else if constexpr (std::is_same_v<T, std::vector<uint64_t>>) {
      ok = FieldReader::U64Array(payload_, &x);
    } else if constexpr (kIsVector<T>) {
      Read(x.emplace_back());
      return;
    } else if constexpr (kIsOptional<T>) {
      Read(x.emplace());
      return;
    } else {
      status_ = DecodeFields(payload_, &x);
      return;
    }
    if (!ok) Malformed();
  }

  FieldReader reader_;
  uint32_t tag_ = 0;
  std::string_view payload_;
  bool has_ = false;
  uint64_t position_ = 0;
  Status status_;
};

template <class M>
void EncodeFields(const M& m, std::string* out) {
  FieldEncoder v(out);
  // The encoder only reads: one non-const Fields() list serves both
  // directions.
  Fields(const_cast<M&>(m), v);
}

/// Resets `*m` to its defaults, then decodes `bytes` into it.
template <class M>
Status DecodeFields(std::string_view bytes, M* m) {
  *m = M();
  FieldDecoder v(bytes);
  while (v.more()) {
    const uint64_t before = v.position();
    Fields(*m, v);
    if (v.position() == before) v.Skip();  // unknown tag
  }
  return v.status();
}

}  // namespace api
}  // namespace bytebrain
