// re2xolap_snapshot: command-line tool for the snapshot subsystem.
//
//   re2xolap_snapshot build <input.nt> <out.snap> [observation_class_iri]
//       Parses an N-Triples file, freezes the store, builds the text
//       index (and, when an observation class IRI is given, the virtual
//       schema graph) and writes a snapshot image (format version 4,
//       frozen: no delta_chain section).
//
//   re2xolap_snapshot inspect <file.snap>
//       Prints the header and section table without touching payloads.
//
//   re2xolap_snapshot verify <file.snap>
//       Full integrity pass: header + every section checksum.
//
//   re2xolap_snapshot export <file.snap> <out.nt>
//       Loads an image and writes its triples back out as N-Triples.
//
// Exit status: 0 on success, 1 on any error (corrupt images report the
// typed status message, e.g. "ParseError: snapshot section spo checksum
// mismatch (corrupted image)").

#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "core/session.h"
#include "core/virtual_schema_graph.h"
#include "rdf/ntriples.h"
#include "rdf/text_index.h"
#include "rdf/triple_store.h"
#include "storage/snapshot.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace {

using namespace re2xolap;

int Usage() {
  std::cerr
      << "usage:\n"
      << "  re2xolap_snapshot build <input.nt> <out.snap> "
         "[observation_class]\n"
      << "  re2xolap_snapshot inspect <file.snap>\n"
      << "  re2xolap_snapshot verify <file.snap>\n"
      << "  re2xolap_snapshot export <file.snap> <out.nt>\n";
  return 1;
}

int Fail(const util::Status& st) {
  std::cerr << "error: " << st << "\n";
  return 1;
}

void PrintInfo(const storage::SnapshotInfo& info) {
  std::cout << "version:      " << info.version << "\n"
            << "file bytes:   " << info.file_bytes << "\n"
            << "freeze epoch: " << info.freeze_epoch << "\n"
            << "triples:      " << info.triple_count << "\n"
            << "terms:        " << info.term_count << "\n"
            << "text index:   " << (info.has_text_index ? "yes" : "no") << "\n"
            << "schema graph: " << (info.has_vsg ? "yes" : "no") << "\n"
            << "sections:\n";
  for (const storage::SectionInfo& s : info.sections) {
    std::cout << "  " << storage::SectionName(s.id) << "  offset=" << s.offset
              << "  bytes=" << s.bytes << "  xxh64=" << std::hex << s.checksum
              << std::dec << "\n";
  }
}

int CmdBuild(const std::string& input, const std::string& output,
             const std::string& observation_class) {
  std::ifstream in(input);
  if (!in) {
    std::cerr << "error: cannot open " << input << "\n";
    return 1;
  }
  std::ostringstream text_buf;
  text_buf << in.rdbuf();

  util::ThreadPool pool(util::ThreadPool::DefaultThreads());
  util::WallTimer timer;
  rdf::TripleStore store;
  util::Status st = rdf::ParseNTriples(text_buf.str(), &store);
  if (!st.ok()) return Fail(st);
  store.Freeze();
  std::cout << "parsed+froze " << store.size() << " triples ("
            << store.dictionary().size() << " terms) in "
            << timer.ElapsedMillis() << " ms\n";

  timer.Restart();
  rdf::TextIndex text(store);
  std::cout << "text index: " << text.indexed_literal_count()
            << " literals in " << timer.ElapsedMillis() << " ms\n";

  storage::VsgImage image;
  const storage::VsgImage* image_ptr = nullptr;
  if (!observation_class.empty()) {
    timer.Restart();
    auto vsg = core::VirtualSchemaGraph::Build(store, observation_class);
    if (!vsg.ok()) return Fail(vsg.status());
    image = storage::MakeVsgImage(*vsg);
    image_ptr = &image;
    std::cout << "schema graph: " << vsg->dimension_count() << " dimensions, "
              << vsg->level_count() << " levels in " << timer.ElapsedMillis()
              << " ms\n";
  }

  timer.Restart();
  storage::SnapshotWriteOptions options;
  options.pool = &pool;
  st = storage::SaveSnapshot(output, store, &text, image_ptr, options);
  if (!st.ok()) return Fail(st);
  auto info = storage::InspectSnapshot(output);
  if (!info.ok()) return Fail(info.status());
  std::cout << "wrote " << output << " (" << info->file_bytes << " bytes) in "
            << timer.ElapsedMillis() << " ms\n";
  return 0;
}

int CmdInspect(const std::string& path) {
  auto info = storage::InspectSnapshot(path);
  if (!info.ok()) return Fail(info.status());
  PrintInfo(*info);
  return 0;
}

int CmdVerify(const std::string& path) {
  util::ThreadPool pool(util::ThreadPool::DefaultThreads());
  util::WallTimer timer;
  auto info = storage::VerifySnapshot(path, &pool);
  if (!info.ok()) return Fail(info.status());
  std::cout << "ok: header and all " << info->sections.size()
            << " section checksums verified in " << timer.ElapsedMillis()
            << " ms\n";
  PrintInfo(*info);
  return 0;
}

int CmdExport(const std::string& path, const std::string& output) {
  util::ThreadPool pool(util::ThreadPool::DefaultThreads());
  storage::SnapshotLoadOptions options;
  options.pool = &pool;
  options.use_mmap = true;
  auto loaded = storage::LoadSnapshot(path, options);
  if (!loaded.ok()) return Fail(loaded.status());
  std::ofstream out(output);
  if (!out) {
    std::cerr << "error: cannot open " << output << " for writing\n";
    return 1;
  }
  rdf::WriteNTriples(*loaded->store, out);
  std::cout << "exported " << loaded->store->size() << " triples to "
            << output << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  std::string cmd = argv[1];
  if (cmd == "build" && (argc == 4 || argc == 5)) {
    return CmdBuild(argv[2], argv[3], argc == 5 ? argv[4] : "");
  }
  if (cmd == "inspect" && argc == 3) return CmdInspect(argv[2]);
  if (cmd == "verify" && argc == 3) return CmdVerify(argv[2]);
  if (cmd == "export" && argc == 4) return CmdExport(argv[2], argv[3]);
  return Usage();
}
