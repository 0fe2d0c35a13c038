#include "qb/datasets.h"

#include <array>
#include <string>
#include <utility>
#include <vector>

namespace re2xolap::qb {

namespace {

/// First 33 entries are the European destination countries; the remainder
/// are grouped by continent for range-based continent mapping.
const std::vector<std::string>& WorldCountries() {
  static const std::vector<std::string>* kCountries =
      new std::vector<std::string>{
          // Europe (0..32) — also the Destination country list.
          "Germany", "France", "Italy", "Spain", "Sweden", "Austria",
          "Belgium", "Netherlands", "Denmark", "Finland", "Norway", "Poland",
          "Czechia", "Hungary", "Greece", "Portugal", "Ireland", "Romania",
          "Bulgaria", "Croatia", "Slovenia", "Slovakia", "Estonia", "Latvia",
          "Lithuania", "Luxembourg", "Malta", "Cyprus", "Iceland",
          "Switzerland", "United Kingdom", "Serbia", "Turkey",
          // Asia (33..72)
          "Syria", "Afghanistan", "Iraq", "Iran", "Pakistan", "India",
          "China", "Bangladesh", "Sri Lanka", "Nepal", "Vietnam", "Thailand",
          "Myanmar", "Cambodia", "Laos", "Mongolia", "Kazakhstan",
          "Uzbekistan", "Tajikistan", "Kyrgyzstan", "Turkmenistan", "Georgia",
          "Armenia", "Azerbaijan", "Lebanon", "Jordan", "Israel",
          "Saudi Arabia", "Yemen", "Oman", "Kuwait", "Qatar", "Bahrain",
          "Indonesia", "Malaysia", "Philippines", "Japan", "South Korea",
          "North Korea", "Singapore",
          // Africa (73..107)
          "Nigeria", "Eritrea", "Somalia", "Ethiopia", "Sudan",
          "South Sudan", "Egypt", "Libya", "Tunisia", "Algeria", "Morocco",
          "Mali", "Niger", "Chad", "Senegal", "Gambia", "Guinea",
          "Ivory Coast", "Ghana", "Cameroon", "Congo", "DR Congo", "Angola",
          "Zambia", "Zimbabwe", "Mozambique", "Malawi", "Tanzania", "Kenya",
          "Uganda", "Rwanda", "Burundi", "South Africa", "Namibia",
          "Botswana",
          // North America (108..117)
          "United States", "Canada", "Mexico", "Guatemala", "Honduras",
          "El Salvador", "Nicaragua", "Costa Rica", "Panama", "Cuba",
          // South America (118..129)
          "Colombia", "Venezuela", "Ecuador", "Peru", "Bolivia", "Brazil",
          "Paraguay", "Uruguay", "Argentina", "Chile", "Guyana", "Suriname",
          // Oceania (130..135)
          "Australia", "New Zealand", "Fiji", "Papua New Guinea", "Samoa",
          "Tonga",
          // Stateless/unknown groups to reach 140 (mapped to "Other").
          "Stateless", "Unknown Origin", "Kosovo", "Palestine",
      };
  return *kCountries;
}

/// Continent index (into the 7-continent list) per origin-country index.
size_t OriginContinentOf(size_t country) {
  if (country <= 32) return 0;    // Europe
  if (country <= 72) return 1;    // Asia
  if (country <= 107) return 2;   // Africa
  if (country <= 117) return 3;   // North America
  if (country <= 129) return 4;   // South America
  if (country <= 135) return 5;   // Oceania
  return 6;                       // Other / unknown
}

std::vector<std::string> PadLabels(std::vector<std::string> base, size_t n,
                                   const std::string& prefix) {
  base.reserve(n);
  for (size_t i = base.size(); i < n; ++i) {
    base.push_back(prefix + " " + std::to_string(i));
  }
  base.resize(n);
  return base;
}

std::vector<std::string> NumberedLabels(size_t n, const std::string& prefix) {
  return PadLabels({}, n, prefix);
}

/// `items` moved into one vector. A braced list would copy each of them
/// twice, into the initializer_list and out of it.
template <typename T, typename... Ts>
std::vector<T> MoveToVector(Ts&... items) {
  std::vector<T> out;
  out.reserve(sizeof...(items));
  (out.push_back(std::move(items)), ...);
  return out;
}

const std::array<const char*, 12> kMonthNames = {
    "January", "February", "March", "April", "May", "June", "July",
    "August", "September", "October", "November", "December"};

}  // namespace

DatasetSpec EurostatSpec(uint64_t observations, uint64_t seed) {
  DatasetSpec spec;
  spec.name = "Eurostat";
  spec.iri_base = "http://example.org/eurostat/";
  spec.observation_class = "http://purl.org/linked-data/cube#Observation";
  spec.measure_predicates = {"numApplicants"};
  spec.observations = observations;
  spec.seed = seed;

  // --- levels (member totals add up to the paper's 373) ---------------------
  LevelSpec age{"age",
                {"0-13", "14-17", "18-34", "35-49", "50-64", "65-79", "80+",
                 "Unknown Age"}};
  LevelSpec month{"month", {}};
  for (int y = 2010; y <= 2019; ++y) {
    for (int m = 0; m < 12; ++m) {
      month.labels.push_back(std::string(kMonthNames[m]) + " " +
                             std::to_string(y));
    }
  }
  LevelSpec quarter{"quarter", {}};
  for (int y = 2010; y <= 2019; ++y) {
    for (int q = 1; q <= 4; ++q) {
      quarter.labels.push_back("Q" + std::to_string(q) + " " +
                               std::to_string(y));
    }
  }
  LevelSpec year{"year", {}};
  for (int y = 2010; y <= 2019; ++y) year.labels.push_back(std::to_string(y));

  LevelSpec country_origin{"countryOrigin", WorldCountries()};  // 140
  LevelSpec continent_origin{
      "continentOrigin",
      {"Europe", "Asia", "Africa", "North America", "South America",
       "Oceania", "Other"}};
  LevelSpec income_group{"incomeGroup",
                         {"Low income", "Lower-middle income",
                          "Upper-middle income", "High income",
                          "Unclassified income"}};
  LevelSpec country_dest{"countryDest", {}};
  country_dest.labels.assign(WorldCountries().begin(),
                             WorldCountries().begin() + 33);
  LevelSpec continent_dest{"continentDest", {"Europe", "Asia"}};
  LevelSpec econ_region{"econRegion",
                        {"European Union", "EFTA", "Schengen Area",
                         "Eurozone", "Nordic Countries", "Baltic States",
                         "Balkans", "Visegrad Group"}};

  spec.levels = MoveToVector<LevelSpec>(
      age, month, quarter, year, country_origin, continent_origin,
      income_group, country_dest, continent_dest, econ_region);

  // --- dimensions ------------------------------------------------------------
  DimensionSpec d_age{"Age", "age", "age", {}};

  DimensionSpec d_period{"RefPeriod", "refPeriod", "month", {}};
  BranchSpec to_year;
  to_year.steps.push_back(HierarchyStep{
      "inYear", "month", "year", [](size_t m) { return m / 12; }, 1});
  BranchSpec to_quarter;
  to_quarter.steps.push_back(HierarchyStep{
      "inQuarter", "month", "quarter", [](size_t m) { return m / 3; }, 1});
  d_period.branches = {to_year, to_quarter};

  DimensionSpec d_origin{"Origin", "countryOrigin", "countryOrigin", {}};
  BranchSpec o_continent;
  o_continent.steps.push_back(HierarchyStep{"inContinent", "countryOrigin",
                                            "continentOrigin",
                                            OriginContinentOf, 1});
  BranchSpec o_income;
  o_income.steps.push_back(
      HierarchyStep{"inIncomeGroup", "countryOrigin", "incomeGroup", nullptr,
                    1});
  d_origin.branches = {o_continent, o_income};

  DimensionSpec d_dest{"Destination", "countryDestination", "countryDest", {}};
  BranchSpec dst_continent;
  dst_continent.steps.push_back(HierarchyStep{
      "destInContinent", "countryDest", "continentDest",
      // Turkey (index 32) is the only partially-Asian destination.
      [](size_t c) { return c == 32 ? size_t{1} : size_t{0}; }, 1});
  BranchSpec dst_region;
  dst_region.steps.push_back(HierarchyStep{"inEconRegion", "countryDest",
                                           "econRegion", nullptr, 1});
  d_dest.branches = {dst_continent, dst_region};

  spec.dimensions =
      MoveToVector<DimensionSpec>(d_age, d_period, d_origin, d_dest);

  spec.predicate_labels = {
      {"age", "Age Range"},
      {"refPeriod", "Reference Period"},
      {"inYear", "Year"},
      {"inQuarter", "Quarter"},
      {"countryOrigin", "Country of Origin"},
      {"inContinent", "Continent"},
      {"inIncomeGroup", "Income Group"},
      {"countryDestination", "Country of Destination"},
      {"destInContinent", "Continent of Destination"},
      {"inEconRegion", "Economic Region"},
      {"numApplicants", "Number of Applicants"},
  };

  // Extra literal attributes per observation — this is why Eurostat has
  // ~11 triples/observation in the paper (richer than Production).
  spec.observation_attrs = {
      {"sex", {"Male", "Female", "Total"}},
      {"unit", {"Persons"}},
      {"applicationType", {"First-time applicant", "Repeat applicant"}},
      {"obsStatus", {"normal", "provisional", "estimated"}},
      {"source", {"Eurostat migr_asyappctzm"}},
  };
  return spec;
}

DatasetSpec ProductionSpec(uint64_t observations, uint64_t seed) {
  DatasetSpec spec;
  spec.name = "Production";
  spec.iri_base = "http://example.org/production/";
  spec.observation_class = "http://example.org/production/Observation";
  spec.measure_predicates = {"outputValue"};
  spec.observations = observations;
  spec.seed = seed;

  std::vector<std::string> countries(WorldCountries().begin(),
                                     WorldCountries().begin() + 43);
  LevelSpec country{"country", countries};
  LevelSpec region{"region",
                   {"Western Europe", "Eastern Europe", "East Asia",
                    "South Asia", "Middle East", "Africa Region",
                    "Americas Region", "Oceania Region"}};
  LevelSpec industry{
      "industry",
      PadLabels({"Agriculture", "Mining", "Food Processing", "Textiles",
                 "Chemicals", "Steel Production", "Machinery",
                 "Electronics Manufacturing", "Automotive",
                 "Electricity Production", "Construction", "Retail Trade",
                 "Transportation", "Telecommunications", "Finance",
                 "Education Services", "Health Services"},
                2100, "Industry")};
  LevelSpec sector{"sector", PadLabels({"Primary Sector", "Secondary Sector",
                                        "Tertiary Sector"},
                                       50, "Sector")};
  // Partner country shares the country label set — the paper points at
  // members shared across levels (e.g. country of destination and origin)
  // as the driver of interpretation counts.
  LevelSpec partner{"partnerCountry", countries};
  LevelSpec product{
      "product",
      PadLabels({"Wheat", "Crude Oil", "Natural Gas", "Steel", "Cement",
                 "Electricity", "Plastics", "Semiconductors", "Vehicles",
                 "Pharmaceuticals", "Clothing", "Furniture"},
                4048, "Product")};
  LevelSpec product_group{"productGroup",
                          PadLabels({"Raw Materials", "Energy Products",
                                     "Intermediate Goods", "Capital Goods",
                                     "Consumer Goods", "Services"},
                                    100, "Product Group")};
  LevelSpec prod_year{"prodYear", {}};
  for (int y = 1990; y <= 2019; ++y) {
    prod_year.labels.push_back(std::to_string(y));
  }
  LevelSpec flow{"flowType",
                 {"Domestic Output", "Imports", "Exports", "Household Use",
                  "Government Use", "Capital Formation", "Intermediate Use",
                  "Inventory Change", "Re-exports", "Losses",
                  "Emissions Flow", "Waste Flow"}};
  LevelSpec unit{"unit",
                 {"Million EUR", "Million USD", "Tonnes", "Kilotonnes",
                  "Terajoules", "Megawatt Hours", "Cubic Metres", "Items",
                  "Hours Worked", "Full-time Equivalents"}};
  spec.levels = MoveToVector<LevelSpec>(country, region, industry, sector,
                                        product, partner, product_group,
                                        prod_year, flow, unit);

  DimensionSpec d_country{"Country", "forCountry", "country", {}};
  BranchSpec c_region;
  c_region.steps.push_back(
      HierarchyStep{"inRegion", "country", "region", nullptr, 1});
  d_country.branches = {c_region};

  DimensionSpec d_industry{"Industry", "forIndustry", "industry", {}};
  BranchSpec i_sector;
  i_sector.steps.push_back(
      HierarchyStep{"inSector", "industry", "sector", nullptr, 1});
  d_industry.branches = {i_sector};

  DimensionSpec d_product{"Product", "forProduct", "product", {}};
  BranchSpec p_group;
  p_group.steps.push_back(
      HierarchyStep{"inProductGroup", "product", "productGroup", nullptr, 1});
  d_product.branches = {p_group};

  DimensionSpec d_partner{"PartnerCountry", "partnerCountry",
                          "partnerCountry", {}};
  DimensionSpec d_year{"Year", "forYear", "prodYear", {}};
  DimensionSpec d_flow{"FlowType", "flowType", "flowType", {}};
  DimensionSpec d_unit{"Unit", "inUnit", "unit", {}};

  spec.dimensions = MoveToVector<DimensionSpec>(
      d_country, d_industry, d_product, d_partner, d_year, d_flow, d_unit);
  return spec;
}

DatasetSpec DbpediaSpec(uint64_t observations, uint64_t seed) {
  DatasetSpec spec;
  spec.name = "DBpedia";
  spec.iri_base = "http://example.org/dbpedia/";
  spec.observation_class = "http://example.org/dbpedia/CreativeWork";
  spec.measure_predicates = {"popularity"};
  spec.observations = observations;
  spec.seed = seed;

  std::vector<std::string> genre_names = PadLabels(
      {"Rock", "Pop", "Jazz", "Blues", "Classical", "Electronic", "Hip Hop",
       "Folk", "Country", "Reggae", "Soul", "Funk", "Metal", "Punk",
       "Disco", "House", "Techno", "Ambient", "Indie Rock", "Hard Rock",
       "Progressive Rock", "Psychedelic Rock", "Alternative Rock",
       "Rhythm and Blues", "Gospel", "Latin", "Salsa", "Flamenco", "Opera",
       "Baroque", "Romantic", "Swing", "Bebop", "Free Jazz", "Grunge",
       "Ska", "Dub", "Trance", "Drum and Bass", "Lo-fi"},
      900, "Genre");

  std::vector<std::string> countries120(WorldCountries().begin(),
                                        WorldCountries().begin() + 120);

  LevelSpec genre{"genre", genre_names};
  LevelSpec parent_genre{"parentGenre", {}};
  parent_genre.labels =
      PadLabels({"Popular Music", "Art Music", "Traditional Music",
                 "Electronic Music", "Vocal Music"},
                150, "Parent Genre");
  LevelSpec top_genre{"topGenre", NumberedLabels(20, "Top Genre")};
  LevelSpec era{"era", NumberedLabels(10, "Musical Era")};
  LevelSpec genre_country{"genreCountry", countries120};

  // Artist member count is derived so that total members equal the paper's
  // 87160 (see sum below).
  LevelSpec artist_country{"artistCountry", countries120};
  LevelSpec artist_continent{"artistContinent",
                             {"Europe", "Asia", "Africa", "North America",
                              "South America", "Oceania", "Other"}};
  LevelSpec decade{"activeDecade", {}};
  for (int d = 1900; d <= 2010; d += 10) {
    decade.labels.push_back(std::to_string(d) + "s");
  }
  LevelSpec artist_genre{"artistGenre", genre_names};  // shared label set
  LevelSpec artist_era{"artistEra", NumberedLabels(10, "Artist Era")};

  LevelSpec record_label{"recordLabel", NumberedLabels(15000, "Label")};
  LevelSpec label_country{"labelCountry", countries120};
  LevelSpec label_continent{"labelContinent",
                            {"Europe", "Asia", "Africa", "North America",
                             "South America", "Oceania", "Other"}};
  LevelSpec label_genre{"labelGenre", genre_names};  // shared label set
  LevelSpec label_decade{"labelDecade", decade.labels};

  LevelSpec instrument{
      "instrument",
      PadLabels({"Guitar", "Electric Guitar", "Bass Guitar", "Piano",
                 "Keyboard", "Drums", "Violin", "Cello", "Double Bass",
                 "Trumpet", "Saxophone", "Trombone", "Clarinet", "Flute",
                 "Harmonica", "Banjo", "Mandolin", "Accordion", "Organ",
                 "Synthesizer", "Turntables", "Vocals", "Harp", "Oboe"},
                300, "Instrument")};
  LevelSpec instr_family{"instrumentFamily",
                         {"Strings", "Woodwind", "Brass", "Percussion",
                          "Keyboard Family", "Electronic Family", "Voice",
                          "Plucked Strings", "Bowed Strings", "Free Reed",
                          "Struck Strings", "Other Family"}};
  LevelSpec instr_class{"instrumentClass",
                        {"Acoustic", "Electric", "Electronic", "Hybrid"}};
  LevelSpec instr_origin{"instrumentOrigin", NumberedLabels(30, "Origin Region")};

  LevelSpec director{"director", NumberedLabels(8000, "Director")};
  LevelSpec dir_country{"directorCountry", countries120};
  LevelSpec dir_continent{"directorContinent",
                          {"Europe", "Asia", "Africa", "North America",
                           "South America", "Oceania", "Other"}};
  LevelSpec dir_decade{"directorDecade", decade.labels};

  // Sum of all fixed levels; artists make up the remainder of 87160.
  size_t fixed = genre.labels.size() + parent_genre.labels.size() +
                 top_genre.labels.size() + era.labels.size() +
                 genre_country.labels.size() + artist_country.labels.size() +
                 artist_continent.labels.size() + decade.labels.size() +
                 artist_genre.labels.size() + artist_era.labels.size() +
                 record_label.labels.size() + label_country.labels.size() +
                 label_continent.labels.size() + label_genre.labels.size() +
                 label_decade.labels.size() + instrument.labels.size() +
                 instr_family.labels.size() + instr_class.labels.size() +
                 instr_origin.labels.size() + director.labels.size() +
                 dir_country.labels.size() + dir_continent.labels.size() +
                 dir_decade.labels.size();
  size_t artist_count = 87160 > fixed ? 87160 - fixed : 1000;
  LevelSpec artist{"artist", NumberedLabels(artist_count, "Artist")};

  spec.levels = MoveToVector<LevelSpec>(
      genre, parent_genre, top_genre, era, genre_country, artist,
      artist_country, artist_continent, decade, artist_genre, artist_era,
      record_label, label_country, label_continent, label_genre, label_decade,
      instrument, instr_family, instr_class, instr_origin, director,
      dir_country, dir_continent, dir_decade);

  auto continent_of_120 = [](size_t c) { return OriginContinentOf(c); };

  DimensionSpec d_genre{"Genre", "hasGenre", "genre", {}};
  {
    BranchSpec parents;  // M-to-N: each genre has 2 parent genres
    parents.steps.push_back(
        HierarchyStep{"subGenreOf", "genre", "parentGenre", nullptr, 2});
    parents.steps.push_back(
        HierarchyStep{"inTopGenre", "parentGenre", "topGenre", nullptr, 2});
    BranchSpec eras;
    eras.steps.push_back(HierarchyStep{"ofEra", "genre", "era", nullptr, 1});
    BranchSpec gcountry;
    gcountry.steps.push_back(
        HierarchyStep{"originatedIn", "genre", "genreCountry", nullptr, 1});
    d_genre.branches = {parents, eras, gcountry};
  }

  DimensionSpec d_artist{"Artist", "byArtist", "artist", {}};
  {
    BranchSpec acountry;
    acountry.steps.push_back(HierarchyStep{"artistFromCountry", "artist",
                                           "artistCountry", nullptr, 1});
    acountry.steps.push_back(HierarchyStep{"artistCountryInContinent",
                                           "artistCountry", "artistContinent",
                                           continent_of_120, 1});
    BranchSpec adecade;
    adecade.steps.push_back(
        HierarchyStep{"activeInDecade", "artist", "activeDecade", nullptr, 2});
    BranchSpec agenre;  // M-to-N: artists play multiple genres
    agenre.steps.push_back(
        HierarchyStep{"artistGenre", "artist", "artistGenre", nullptr, 3});
    BranchSpec aera;
    aera.steps.push_back(
        HierarchyStep{"artistOfEra", "artist", "artistEra", nullptr, 1});
    d_artist.branches = {acountry, adecade, agenre, aera};
  }

  DimensionSpec d_label{"RecordLabel", "releasedBy", "recordLabel", {}};
  {
    BranchSpec lcountry;
    lcountry.steps.push_back(HierarchyStep{"labelFromCountry", "recordLabel",
                                           "labelCountry", nullptr, 1});
    lcountry.steps.push_back(HierarchyStep{"labelCountryInContinent",
                                           "labelCountry", "labelContinent",
                                           continent_of_120, 1});
    BranchSpec lgenre;  // M-to-N
    lgenre.steps.push_back(
        HierarchyStep{"labelGenre", "recordLabel", "labelGenre", nullptr, 3});
    BranchSpec ldecade;
    ldecade.steps.push_back(HierarchyStep{"labelFoundedDecade", "recordLabel",
                                          "labelDecade", nullptr, 1});
    d_label.branches = {lcountry, lgenre, ldecade};
  }

  DimensionSpec d_instrument{"Instrument", "usesInstrument", "instrument", {}};
  {
    BranchSpec family;
    family.steps.push_back(HierarchyStep{"inFamily", "instrument",
                                         "instrumentFamily", nullptr, 1});
    family.steps.push_back(HierarchyStep{"familyInClass", "instrumentFamily",
                                         "instrumentClass", nullptr, 1});
    BranchSpec origin;
    origin.steps.push_back(HierarchyStep{"instrumentFromRegion", "instrument",
                                         "instrumentOrigin", nullptr, 1});
    d_instrument.branches = {family, origin};
  }

  DimensionSpec d_director{"Director", "directedBy", "director", {}};
  {
    BranchSpec dcountry;
    dcountry.steps.push_back(HierarchyStep{"directorFromCountry", "director",
                                           "directorCountry", nullptr, 1});
    dcountry.steps.push_back(HierarchyStep{"directorCountryInContinent",
                                           "directorCountry",
                                           "directorContinent",
                                           continent_of_120, 1});
    BranchSpec ddecade;
    ddecade.steps.push_back(HierarchyStep{"directorActiveDecade", "director",
                                          "directorDecade", nullptr, 1});
    d_director.branches = {dcountry, ddecade};
  }

  spec.dimensions = MoveToVector<DimensionSpec>(d_genre, d_artist, d_label,
                                                d_instrument, d_director);
  return spec;
}

}  // namespace re2xolap::qb
