#include "graph/edge_list.h"

#include <algorithm>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "util/flat_hash_map.h"
#include "util/input_file.h"
#include "util/staged_file.h"
#include "util/text_writer.h"

namespace gps {
namespace {

// ---- Strict bulk text parser ---------------------------------------------
//
// One pointer-walking pass shared by FromText and Load, so both report
// identical errors and line numbers. Replaces the istringstream-per-line
// parser twice over: it is an order of magnitude faster (no stream
// construction, no locale machinery — just digit accumulation), and it is
// STRICT — a line must be exactly two node ids, so trailing junk and
// weight columns ("1 2 garbage", "1 2 0.5") are refusals, not silently
// dropped data feeding a paper-faithful estimator the wrong stream.

/// Ceiling on the offending-line echo in error messages, so a pathological
/// input (one multi-megabyte line) cannot balloon the error text.
constexpr size_t kMaxEchoedLineChars = 80;

std::string EchoLine(const char* begin, const char* end) {
  const size_t len = static_cast<size_t>(end - begin);
  if (len <= kMaxEchoedLineChars) return std::string(begin, len);
  return std::string(begin, kMaxEchoedLineChars) + "...";
}

inline bool IsBlank(char c) { return c == ' ' || c == '\t'; }
inline bool IsDigit(char c) { return c >= '0' && c <= '9'; }

/// How one node-id token parsed.
enum class TokenKind {
  kOk,        // nonnegative id within the NodeId range
  kMalformed, // not a decimal integer
  kNegative,  // well-formed but negative — out of range, like the old parser
  kOverflow,  // well-formed but exceeds the 32-bit id space
};

/// Parses one decimal node id at *p (within [*p, end)), advancing *p past
/// the digits. Saturates instead of overflowing, so arbitrarily long digit
/// runs classify as kOverflow.
TokenKind ParseNodeId(const char** p, const char* end, uint64_t* value) {
  const char* q = *p;
  constexpr uint64_t kMaxId = static_cast<uint64_t>(kInvalidNode) - 1;
  if (q < end && *q == '-') {
    if (q + 1 < end && IsDigit(q[1])) {
      // Consume the token so the caller's position stays sane.
      ++q;
      while (q < end && IsDigit(*q)) ++q;
      *p = q;
      return TokenKind::kNegative;
    }
    return TokenKind::kMalformed;
  }
  if (q >= end || !IsDigit(*q)) return TokenKind::kMalformed;
  uint64_t v = 0;
  bool over = false;
  while (q < end && IsDigit(*q)) {
    if (!over) {
      v = v * 10 + static_cast<uint64_t>(*q - '0');
      if (v > kMaxId) over = true;  // v <= kMaxId before, so no u64 wrap
    }
    ++q;
  }
  *p = q;
  *value = v;
  return over ? TokenKind::kOverflow : TokenKind::kOk;
}

/// Parses whole "u v" lines into `out`, numbering them on from
/// `*line_no`. Blank lines and '#'/'%' comment lines are skipped; '\r'
/// before a newline is tolerated (CRLF files); anything after the two ids
/// is a named refusal. Only the buffer's last line may lack its newline.
Status ParseEdgeTextBuffer(const char* data, size_t size, size_t* line_no,
                           EdgeList* out) {
  const char* p = data;
  const char* const end = data + size;
  while (p < end) {
    ++*line_no;
    const char* const line_begin = p;
    const char* const nl =
        static_cast<const char*>(std::memchr(p, '\n', end - p));
    const char* line_end = nl != nullptr ? nl : end;
    p = nl != nullptr ? nl + 1 : end;  // next iteration starts past '\n'
    // Strip one trailing '\r' so CRLF input parses like LF input.
    if (line_end > line_begin && line_end[-1] == '\r') --line_end;

    const char* q = line_begin;
    while (q < line_end && IsBlank(*q)) ++q;
    if (q == line_end) continue;                // blank line
    if (*q == '#' || *q == '%') continue;       // comment line

    const auto fail = [&](const char* what) {
      return Status::InvalidArgument(std::string(what) + " on line " +
                                     std::to_string(*line_no) + ": '" +
                                     EchoLine(line_begin, line_end) + "'");
    };
    const auto out_of_range = [&] {
      return Status::OutOfRange("node id out of range on line " +
                                std::to_string(*line_no));
    };

    uint64_t a = 0;
    uint64_t b = 0;
    switch (ParseNodeId(&q, line_end, &a)) {
      case TokenKind::kMalformed: return fail("malformed edge");
      case TokenKind::kNegative: return out_of_range();
      case TokenKind::kOverflow: return out_of_range();
      case TokenKind::kOk: break;
    }
    if (q < line_end && !IsBlank(*q)) return fail("malformed edge");
    while (q < line_end && IsBlank(*q)) ++q;
    switch (ParseNodeId(&q, line_end, &b)) {
      case TokenKind::kMalformed: return fail("malformed edge");
      case TokenKind::kNegative: return out_of_range();
      case TokenKind::kOverflow: return out_of_range();
      case TokenKind::kOk: break;
    }
    while (q < line_end && IsBlank(*q)) ++q;
    if (q != line_end) return fail("trailing junk after edge");

    out->Add(static_cast<NodeId>(a), static_cast<NodeId>(b));
  }
  return Status::Ok();
}

}  // namespace

void EdgeList::Add(NodeId u, NodeId v) {
  edges_.push_back(Edge{u, v});
  const NodeId hi = std::max(u, v);
  if (hi + 1 > num_nodes_) num_nodes_ = hi + 1;
}

void EdgeList::Clear() {
  edges_.clear();
  num_nodes_ = 0;
}

size_t EdgeList::Simplify() {
  const size_t before = edges_.size();
  size_t out = 0;
  for (size_t i = 0; i < edges_.size(); ++i) {
    if (!edges_[i].IsSelfLoop()) edges_[out++] = edges_[i].Canonical();
  }
  edges_.resize(out);
  std::sort(edges_.begin(), edges_.end(), [](const Edge& a, const Edge& b) {
    return a.u != b.u ? a.u < b.u : a.v < b.v;
  });
  edges_.erase(std::unique(edges_.begin(), edges_.end()), edges_.end());
  return before - edges_.size();
}

size_t EdgeList::CountTouchedNodes() const {
  FlatHashSet<NodeId> nodes(edges_.size() * 2 + 8);
  for (const Edge& e : edges_) {
    nodes.Insert(e.u);
    nodes.Insert(e.v);
  }
  return nodes.size();
}

Result<EdgeList> EdgeList::FromText(const std::string& text) {
  EdgeList list;
  list.Reserve(text.size() / 16);
  size_t line_no = 0;
  if (Status s = ParseEdgeTextBuffer(text.data(), text.size(), &line_no, &list);
      !s.ok()) {
    return s;
  }
  return list;
}

Result<EdgeList> EdgeList::Load(const std::string& path) {
  // Each read appends the next kEdgeListReadBufferBytes of the file to
  // the unfinished line the last one left at the buffer's front; the
  // parser sees whole lines only, so errors and line numbers match
  // FromText. The buffer grows only when a line straddles a read.
  Result<InputFile> file = InputFile::Open(path);
  if (!file.ok()) return file.status();
  EdgeList list;
  list.Reserve(file->size() / 16);
  std::vector<char> buffer;
  size_t carried = 0;  // bytes of the unfinished line at buffer's front
  size_t line_no = 0;
  for (uint64_t offset = 0; offset < file->size();) {
    const size_t want = static_cast<size_t>(
        std::min<uint64_t>(kEdgeListReadBufferBytes, file->size() - offset));
    const size_t filled = carried + want;
    if (buffer.size() < filled) buffer.resize(filled);
    if (Status s = file->ReadAt(offset, buffer.data() + carried, want);
        !s.ok()) {
      return s;
    }
    offset += want;
    // Up to the last newline (npos + 1 == 0: none yet); all of the last read.
    const size_t whole =
        offset == file->size()
            ? filled
            : std::string_view(buffer.data(), filled).rfind('\n') + 1;
    if (Status s = ParseEdgeTextBuffer(buffer.data(), whole, &line_no, &list);
        !s.ok()) {
      return s;
    }
    carried = filled - whole;
    std::memmove(buffer.data(), buffer.data() + whole, carried);
  }
  return list;
}

Status EdgeList::Save(const std::string& path) const {
  // Staged (util/staged_file.h): a failed or interrupted write leaves the
  // previous file at `path` intact.
  Result<StagedFile> file = StagedFile::Create(path);
  if (!file.ok()) return file.status();
  TextWriter out([&](std::string_view chunk) { return file->Write(chunk); });
  for (const Edge& e : edges_) out.Int(e.u).Char(' ').Int(e.v).Char('\n');
  if (Status s = out.Finish(); !s.ok()) return s;
  return file->Commit();
}

}  // namespace gps
