#include "algebra/construct.h"

namespace nimble {
namespace algebra {

namespace {

Status InstantiateInto(const xmlql::TemplateNode& tmpl,
                       const TupleSchema& schema, const Tuple& tuple,
                       Node* parent) {
  switch (tmpl.kind) {
    case xmlql::TemplateNode::Kind::kText:
      parent->AddChild(Node::Text(tmpl.text));
      return Status::OK();
    case xmlql::TemplateNode::Kind::kVariable: {
      std::optional<size_t> slot = schema.SlotOf(tmpl.variable);
      if (!slot.has_value()) {
        return Status::InvalidArgument("template variable $" + tmpl.variable +
                                       " not bound");
      }
      const Binding& binding = tuple[*slot];
      if (binding.is_node()) {
        parent->AddChild(binding.node()->Clone());
      } else {
        parent->AddChild(Node::Text(binding.AsScalar()));
      }
      return Status::OK();
    }
    case xmlql::TemplateNode::Kind::kAggregate: {
      // Aggregate outputs are named "<fn>_<var>" by the engine's
      // HashAggregate stage.
      std::string output = std::string(xmlql::AggregateFnName(tmpl.aggregate)) +
                           "_" + tmpl.variable;
      std::optional<size_t> slot = schema.SlotOf(output);
      if (!slot.has_value()) {
        return Status::InvalidArgument("aggregate " + output +
                                       " missing from plan output");
      }
      parent->AddChild(Node::Text(tuple[*slot].AsScalar()));
      return Status::OK();
    }
    case xmlql::TemplateNode::Kind::kElement: {
      NodePtr element = Node::Element(tmpl.tag);
      for (const xmlql::TemplateNode::Attr& attr : tmpl.attributes) {
        if (attr.is_variable) {
          std::optional<size_t> slot = schema.SlotOf(attr.variable);
          if (!slot.has_value()) {
            return Status::InvalidArgument("template variable $" +
                                           attr.variable + " not bound");
          }
          element->SetAttribute(attr.name, tuple[*slot].AsScalar());
        } else {
          element->SetAttribute(attr.name, attr.literal);
        }
      }
      Node* raw = element.get();
      parent->AddChild(std::move(element));
      for (const auto& child : tmpl.children) {
        NIMBLE_RETURN_IF_ERROR(InstantiateInto(*child, schema, tuple, raw));
      }
      return Status::OK();
    }
  }
  return Status::Internal("unreachable");
}

}  // namespace

Result<NodePtr> InstantiateTemplate(const xmlql::TemplateNode& tmpl,
                                    const TupleSchema& schema,
                                    const Tuple& tuple) {
  NodePtr holder = Node::Element("holder");
  NIMBLE_RETURN_IF_ERROR(InstantiateInto(tmpl, schema, tuple, holder.get()));
  if (holder->children().size() != 1) {
    return Status::Internal("template instantiation produced " +
                            std::to_string(holder->children().size()) +
                            " roots");
  }
  // Detach from the holder so the caller owns a clean root.
  NodePtr result = holder->children()[0];
  holder->RemoveChild(0);
  return result;
}

Result<size_t> ConstructResult(Operator* plan, const xmlql::TemplateNode& tmpl,
                               Node* root) {
  NIMBLE_RETURN_IF_ERROR(plan->Open());
  size_t rows = 0;
  while (true) {
    NIMBLE_ASSIGN_OR_RETURN(std::optional<TupleBatch> batch,
                            plan->NextBatch());
    if (!batch.has_value()) break;
    rows += batch->size();
    for (size_t i = 0; i < batch->size(); ++i) {
      NIMBLE_ASSIGN_OR_RETURN(NodePtr instance,
                              InstantiateTemplate(tmpl, plan->schema(),
                                                  batch->MaterializeTuple(i)));
      root->AddChild(std::move(instance));
    }
  }
  plan->Close();
  return rows;
}

}  // namespace algebra
}  // namespace nimble
