#include <gtest/gtest.h>

#include <sstream>

#include "seq/alphabet.hpp"
#include "seq/fasta.hpp"
#include "seq/sequence.hpp"

namespace repro::seq {
namespace {

TEST(Alphabet, ProteinRoundTrip) {
  const Alphabet& a = Alphabet::protein();
  EXPECT_EQ(a.size(), 24);
  EXPECT_EQ(a.core_size(), 20);
  for (char c : std::string("ARNDCQEGHILKMFPSTWYVBZX*"))
    EXPECT_EQ(a.decode(a.encode(c)), c);
}

TEST(Alphabet, CaseInsensitive) {
  const Alphabet& a = Alphabet::protein();
  EXPECT_EQ(a.encode('w'), a.encode('W'));
  const Alphabet& d = Alphabet::dna();
  EXPECT_EQ(d.encode('a'), d.encode('A'));
}

TEST(Alphabet, InvalidCharacterThrows) {
  EXPECT_THROW((void)Alphabet::protein().encode('J'), std::logic_error);
  EXPECT_THROW((void)Alphabet::dna().encode('E'), std::logic_error);
  EXPECT_FALSE(Alphabet::dna().valid('#'));
  EXPECT_TRUE(Alphabet::dna().valid('t'));
}

TEST(Alphabet, UnknownCodes) {
  EXPECT_EQ(Alphabet::protein().decode(Alphabet::protein().unknown_code()), 'X');
  EXPECT_EQ(Alphabet::dna().decode(Alphabet::dna().unknown_code()), 'N');
}

TEST(Sequence, FromStringRoundTrip) {
  const auto s = Sequence::from_string("demo", "ACGTACGT", Alphabet::dna());
  EXPECT_EQ(s.name(), "demo");
  EXPECT_EQ(s.length(), 8);
  EXPECT_EQ(s.to_string(), "ACGTACGT");
  EXPECT_EQ(s[0], Alphabet::dna().encode('A'));
}

TEST(Sequence, Subsequence) {
  const auto s = Sequence::from_string("demo", "ACGTACGT", Alphabet::dna());
  const auto sub = s.subsequence(2, 6);
  EXPECT_EQ(sub.to_string(), "GTAC");
  EXPECT_THROW(s.subsequence(-1, 3), std::logic_error);
  EXPECT_THROW(s.subsequence(5, 3), std::logic_error);
  EXPECT_EQ(s.subsequence(3, 3).length(), 0);
}

TEST(Fasta, ParsesRecords) {
  std::istringstream in(">one desc here\nACGT\nACG\n>two\n\nTTTT\n");
  const auto recs = read_fasta(in, Alphabet::dna());
  ASSERT_EQ(recs.size(), 2u);
  EXPECT_EQ(recs[0].name(), "one desc here");
  EXPECT_EQ(recs[0].to_string(), "ACGTACG");
  EXPECT_EQ(recs[1].name(), "two");
  EXPECT_EQ(recs[1].to_string(), "TTTT");
}

TEST(Fasta, HandlesCrlfAndWhitespace) {
  std::istringstream in(">r\r\nAC GT\r\nAC\r\n");
  const auto recs = read_fasta(in, Alphabet::dna());
  ASSERT_EQ(recs.size(), 1u);
  EXPECT_EQ(recs[0].to_string(), "ACGTAC");
}

TEST(Fasta, EmptyStream) {
  std::istringstream in("");
  EXPECT_TRUE(read_fasta(in, Alphabet::dna()).empty());
}

TEST(Fasta, DataBeforeHeaderThrows) {
  std::istringstream in("ACGT\n");
  EXPECT_THROW(read_fasta(in, Alphabet::dna()), std::logic_error);
}

TEST(Fasta, InvalidResidueThrows) {
  std::istringstream in(">r\nACQT\n");
  EXPECT_THROW(read_fasta(in, Alphabet::dna()), std::logic_error);
}

TEST(Fasta, HeaderOnlyRecordMidFileThrowsWithName) {
  std::istringstream in(">first\n>second\nACGT\n");
  try {
    (void)read_fasta(in, Alphabet::dna());
    FAIL() << "header-only record was accepted";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("first"), std::string::npos)
        << e.what();
  }
}

TEST(Fasta, HeaderOnlyRecordAtEofThrowsWithName) {
  std::istringstream in(">ok\nACGT\n>trailing desc\n");
  try {
    (void)read_fasta(in, Alphabet::dna());
    FAIL() << "trailing header-only record was accepted";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("trailing desc"), std::string::npos)
        << e.what();
  }
}

TEST(Fasta, CrlfHeaderOnlyRecordThrows) {
  // CRLF line endings strip to an empty body, not a one-char '\r' body.
  std::istringstream in(">empty\r\n>two\r\nACGT\r\n");
  EXPECT_THROW(read_fasta(in, Alphabet::dna()), std::logic_error);
}

TEST(Fasta, WhitespaceOnlyBodyThrows) {
  std::istringstream in(">blank\n   \n\t\n");
  EXPECT_THROW(read_fasta(in, Alphabet::dna()), std::logic_error);
}

TEST(Fasta, WriteReadRoundTrip) {
  std::vector<Sequence> recs;
  recs.push_back(Sequence::from_string("alpha", "ACGTACGTACGT", Alphabet::dna()));
  recs.push_back(Sequence::from_string("beta", "TTTT", Alphabet::dna()));
  std::ostringstream out;
  write_fasta(out, recs, 5);  // exercise wrapping
  std::istringstream in(out.str());
  const auto back = read_fasta(in, Alphabet::dna());
  ASSERT_EQ(back.size(), 2u);
  EXPECT_EQ(back[0].name(), "alpha");
  EXPECT_EQ(back[0].to_string(), "ACGTACGTACGT");
  EXPECT_EQ(back[1].to_string(), "TTTT");
}

}  // namespace
}  // namespace repro::seq
