"""Bundled demo taxonomy and default category catalogues.

The demo tree is a small interest-category taxonomy of about two hundred
keyword senses with maximum depth exactly 19, so the top similarity score
is ln 38, about 3.6376. Tests and default simulator manifests rely on a
few structural facts encoded here:

* "pools" and "hot tubs & spas" are siblings of "swimming pools & spas",
  and "water sports" is the parent of "surf & swim", so a 2.5 similarity
  threshold (path length 3 or shorter) links coarse and fine tag sources;
* "motor sports" and "motorcycles" are siblings (a taxonomy-near persona
  pair) while most other default categories are far apart;
* every default persona category has children, giving each persona a
  keyword bundle larger than one.
"""

from __future__ import annotations

from .taxonomy import KeywordTaxonomy

# (child, parent) edges; the root names itself with parent "-".
DEMO_EDGES: list[tuple[str, str]] = [
    ("root", "-"),
    # arts & entertainment
    ("arts & entertainment", "root"),
    ("movies", "arts & entertainment"),
    ("action films", "movies"),
    ("comedy films", "movies"),
    ("documentary films", "movies"),
    ("music", "arts & entertainment"),
    ("rock music", "music"),
    ("jazz", "music"),
    ("classical music", "music"),
    ("performing arts", "arts & entertainment"),
    ("theatre", "performing arts"),
    ("dance", "performing arts"),
    ("tv shows", "arts & entertainment"),
    # autos & vehicles
    ("autos & vehicles", "root"),
    ("cars", "autos & vehicles"),
    ("electric cars", "cars"),
    ("classic cars", "cars"),
    ("motorcycles", "autos & vehicles"),
    ("sport bikes", "motorcycles"),
    ("cruiser motorcycles", "motorcycles"),
    ("motor sports", "autos & vehicles"),
    ("formula racing", "motor sports"),
    ("rally racing", "motor sports"),
    ("trucks & suvs", "autos & vehicles"),
    ("vehicle parts", "autos & vehicles"),
    # beauty & fitness
    ("beauty & fitness", "root"),
    ("fitness", "beauty & fitness"),
    ("gyms & health clubs", "fitness"),
    ("yoga & pilates", "fitness"),
    ("hair care", "beauty & fitness"),
    ("cosmetics", "beauty & fitness"),
    # business & industrial
    ("business & industrial", "root"),
    ("security", "business & industrial"),
    ("security products & services", "security"),
    ("surveillance systems", "security"),
    ("construction", "business & industrial"),
    ("agriculture", "business & industrial"),
    ("advertising & marketing", "business & industrial"),
    # computers & electronics
    ("computers & electronics", "root"),
    ("software", "computers & electronics"),
    ("operating systems", "software"),
    ("graphics software", "software"),
    ("consumer electronics", "computers & electronics"),
    ("audio equipment", "consumer electronics"),
    ("mobile phones", "consumer electronics"),
    ("networking", "computers & electronics"),
    # finance
    ("finance", "root"),
    ("banking", "finance"),
    ("online banking", "banking"),
    ("retail banking", "banking"),
    ("insurance", "finance"),
    ("car insurance", "insurance"),
    ("life insurance", "insurance"),
    ("investing", "finance"),
    ("stocks & bonds", "investing"),
    ("retirement planning", "investing"),
    # food & drink
    ("food & drink", "root"),
    ("cooking & recipes", "food & drink"),
    ("baking", "cooking & recipes"),
    ("grilling", "cooking & recipes"),
    ("restaurants", "food & drink"),
    ("fast food", "restaurants"),
    ("beverages", "food & drink"),
    ("coffee & tea", "beverages"),
    ("juices", "beverages"),
    # games
    ("games", "root"),
    ("video games", "games"),
    ("strategy games", "video games"),
    ("shooter games", "video games"),
    ("sports games", "video games"),
    ("card games", "games"),
    ("puzzles", "games"),
    # health
    ("health", "root"),
    ("conditions", "health"),
    ("diabetes", "conditions"),
    ("type 1 diabetes", "diabetes"),
    ("type 2 diabetes", "diabetes"),
    ("aids & hiv", "conditions"),
    ("hiv prevention", "aids & hiv"),
    ("hiv treatment", "aids & hiv"),
    ("allergies", "conditions"),
    ("nutrition", "health"),
    ("mental health", "health"),
    ("medical services", "health"),
    # hobbies & leisure
    ("hobbies & leisure", "root"),
    ("photography", "hobbies & leisure"),
    ("digital photography", "photography"),
    ("film photography", "photography"),
    ("crafts", "hobbies & leisure"),
    ("outdoors", "hobbies & leisure"),
    ("camping", "outdoors"),
    ("fishing", "outdoors"),
    ("collecting", "hobbies & leisure"),
    ("stamp collecting", "collecting"),
    # home & garden
    ("home & garden", "root"),
    ("yard & patio", "home & garden"),
    ("swimming pools & spas", "yard & patio"),
    ("inground pools", "swimming pools & spas"),
    ("pool maintenance", "swimming pools & spas"),
    ("hot tubs & spas", "yard & patio"),
    ("pools", "yard & patio"),
    ("lawn care", "yard & patio"),
    ("home improvement", "home & garden"),
    ("plumbing", "home improvement"),
    ("flooring", "home improvement"),
    ("kitchen & dining", "home & garden"),
    ("cookware", "kitchen & dining"),
    ("home security", "home & garden"),
    # news
    ("news", "root"),
    ("weather", "news"),
    ("weather forecasts", "weather"),
    ("severe weather", "weather"),
    ("world news", "news"),
    ("local news", "news"),
    ("sports news", "news"),
    # people & society
    ("people & society", "root"),
    ("religion", "people & society"),
    ("hinduism", "religion"),
    ("hindu festivals", "hinduism"),
    ("hindu temples", "hinduism"),
    ("buddhism", "religion"),
    ("christianity", "religion"),
    ("politics", "people & society"),
    ("left-wing politics", "politics"),
    ("labor movements", "left-wing politics"),
    ("social policy", "left-wing politics"),
    ("right-wing politics", "politics"),
    ("dating", "people & society"),
    ("matchmaking services", "dating"),
    ("online dating", "dating"),
    # pets & animals
    ("pets & animals", "root"),
    ("pets", "pets & animals"),
    ("dogs", "pets"),
    ("cats", "pets"),
    ("birds", "pets"),
    ("pet food & supplies", "pets & animals"),
    ("wildlife", "pets & animals"),
    # real estate
    ("real estate", "root"),
    ("residential sales", "real estate"),
    ("rentals", "real estate"),
    ("commercial property", "real estate"),
    # reference, including the depth-19 geography chain
    ("reference", "root"),
    ("geography", "reference"),
    ("world regions", "geography"),
    ("europe", "world regions"),
    ("southern europe", "europe"),
    ("iberian peninsula", "southern europe"),
    ("spain", "iberian peninsula"),
    ("spanish regions", "spain"),
    ("community of madrid", "spanish regions"),
    ("madrid province", "community of madrid"),
    ("madrid metropolitan area", "madrid province"),
    ("madrid city", "madrid metropolitan area"),
    ("madrid districts", "madrid city"),
    ("centro district", "madrid districts"),
    ("centro neighborhoods", "centro district"),
    ("sol neighborhood", "centro neighborhoods"),
    ("sol landmarks", "sol neighborhood"),
    ("puerta del sol plaza", "sol landmarks"),
    ("encyclopedias", "reference"),
    ("libraries", "reference"),
    # science
    ("science", "root"),
    ("biology", "science"),
    ("zoology", "biology"),
    ("botany", "biology"),
    ("chemistry", "science"),
    ("physics", "science"),
    ("environment", "science"),
    # shopping
    ("shopping", "root"),
    ("apparel & accessories", "shopping"),
    ("gems & jewellery", "apparel & accessories"),
    ("jewellery", "apparel & accessories"),
    ("watches", "apparel & accessories"),
    ("footwear", "apparel & accessories"),
    ("toys & games", "shopping"),
    ("outdoor toys & play equipment", "toys & games"),
    ("toys", "toys & games"),
    ("model trains", "toys & games"),
    ("antiques", "shopping"),
    ("coupons & discounts", "shopping"),
    # sports
    ("sports", "root"),
    ("water sports", "sports"),
    ("surf & swim", "water sports"),
    ("swimming", "water sports"),
    ("diving", "water sports"),
    ("water polo", "water sports"),
    ("team sports", "sports"),
    ("soccer", "team sports"),
    ("basketball", "team sports"),
    ("volleyball", "team sports"),
    ("individual sports", "sports"),
    ("tennis", "individual sports"),
    ("golf", "individual sports"),
    ("winter sports", "sports"),
    ("skiing", "winter sports"),
    # travel
    ("travel", "root"),
    ("air travel", "travel"),
    ("budget flights", "air travel"),
    ("airport services", "air travel"),
    ("hotels & accommodations", "travel"),
    ("resorts", "hotels & accommodations"),
    ("hostels", "hotels & accommodations"),
    ("cruises", "travel"),
    ("car rental", "travel"),
]

# Default persona categories for simulator manifests. Every entry has
# taxonomy children, and "motor sports" / "motorcycles" are siblings.
DEFAULT_PERSONA_CATEGORIES: list[str] = [
    "motor sports",
    "motorcycles",
    "cooking & recipes",
    "banking",
    "air travel",
    "photography",
    "movies",
    "swimming pools & spas",
    "video games",
    "dating",
]

# Category pools for non-targeted ad kinds. Disjoint from every default
# persona bundle and from the weather theme, so a zero-noise run cannot
# produce a keyword match on a non-OBA landing page.
STATIC_AD_CATEGORIES: list[str] = [
    "antiques",
    "footwear",
    "watches",
    "flooring",
    "plumbing",
    "resorts",
    "hostels",
    "coffee & tea",
    "juices",
    "soccer",
    "basketball",
    "cookware",
    "stamp collecting",
]

LOCAL_AD_CATEGORIES: list[str] = [
    "local news",
    "rentals",
    "residential sales",
    "libraries",
    "fast food",
    "car rental",
]

# Control pages and contextual ads carry "weather" plus one of these,
# alternating.
WEATHER_SUBCATEGORIES: list[str] = [
    "weather forecasts",
    "severe weather",
]


def demo_taxonomy() -> KeywordTaxonomy:
    """The bundled demo tree (about 200 senses, max depth 19)."""
    return KeywordTaxonomy.from_edges(DEMO_EDGES)


def demo_taxonomy_text() -> str:
    """The demo tree rendered in the tab-separated file format."""
    return "\n".join(f"{child}\t{parent}" for child, parent in DEMO_EDGES) + "\n"


def persona_bundle(tax: KeywordTaxonomy, category: str) -> list[str]:
    """A persona's keyword bundle: its category plus taxonomy children."""
    from .taxonomy import normalize_keyword

    cat = normalize_keyword(category)
    nodes = {node for node in tax.senses.get(cat, ())}
    children = sorted(
        text
        for text, sense_nodes in tax.senses.items()
        for node in sense_nodes
        if tax.parent[node] in nodes
    )
    return [cat] + children
